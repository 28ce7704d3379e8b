// Package summary computes cross-package function summaries for
// amnesialint's analyzers. For every function in a package it records:
//
//   - goroutine-lifecycle shape bits (joins a WaitGroup, closes a
//     channel at exit, is purely channel-driven, contains an
//     unstoppable loop) consumed by goroutinelife when a `go` statement
//     spawns a function from another package;
//   - pooled-batch wrapper shape (returns a fresh pooled batch,
//     recycles a parameter) consumed by pairflow so wrappers around
//     GetBatch/PutBatch are tracked like the primitives.
//
// The driver builds packages in dependency order and shares their
// summaries in-process through one Program.
package summary

import "sync"

// A FuncSummary is the cross-package abstract of one function.
type FuncSummary struct {
	Name string

	// Goroutine lifecycle shape (see package goroutinelife rules).
	Joins           bool // calls Done() on a sync.WaitGroup
	ClosesChan      bool // closes a channel (possibly deferred)
	ChannelDriven   bool // loop-free body gated on channel receives
	UnstoppableLoop bool // cond-less loop with no exit or channel wait
	HasLoop         bool // contains any for/range loop
	WaitsOnChan     bool // contains a select or channel receive
	RefsCtx         bool // references a context.Context value

	// Pooled-batch wrapper shape.
	ReturnsBatch  bool  // returns engine.GetBatch's result
	RecyclesParam []int // param indices reaching PutBatch/RecycleChunk
}

// A Program accumulates every analyzed package's summaries across one
// driver run. Safe for concurrent use by the parallel driver.
type Program struct {
	mu sync.RWMutex
	// funcs indexes every summary by full name for cross-package lookup.
	funcs map[string]*FuncSummary
}

func NewProgram() *Program {
	return &Program{funcs: map[string]*FuncSummary{}}
}

// Add registers one package's summaries, keyed by full name.
func (p *Program) Add(funcs map[string]*FuncSummary) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, fs := range funcs {
		p.funcs[name] = fs
	}
}

// Func looks a summary up by the types.Func full name.
func (p *Program) Func(name string) *FuncSummary {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.funcs[name]
}
