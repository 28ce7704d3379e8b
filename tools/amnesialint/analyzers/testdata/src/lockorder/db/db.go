// Package db stubs the engine's ranked lock owners: the classifier
// keys on method shape — a type with Relations() owns the catalog
// lock, one with liveLocked() owns a relation lock — so these fixtures
// engage the rank rules exactly like the real catalog types.
package db

import (
	"sync"

	"fixture/lockrank"
)

// DB owns the catalog lock (structural rank: has Relations).
type DB struct {
	mu     sync.RWMutex
	SrcMu  sync.Mutex // auxiliary field: unranked, cycle detection only
	tables map[string]*Table
}

func (d *DB) Relations() []string { return nil }

// Lock/Unlock expose the unexported mutex to the sibling fixture
// package without changing its classification (classify keys on the
// selector the lock call is made through, so helpers live here).
func (d *DB) Lock()    { d.mu.Lock() }
func (d *DB) Unlock()  { d.mu.Unlock() }
func (d *DB) RLock()   { d.mu.RLock() }
func (d *DB) RUnlock() { d.mu.RUnlock() }

// Table owns a relation lock (structural rank: has liveLocked).
type Table struct {
	mu      sync.RWMutex
	dropped bool
}

func (t *Table) liveLocked() error { _ = t.dropped; return nil }

func (t *Table) Lock()   { t.mu.Lock() }
func (t *Table) Unlock() { t.mu.Unlock() }

// PTable is a second relation-ranked class, for the name-order
// protocol cases.
type PTable struct {
	mu      sync.RWMutex
	dropped bool
}

func (p *PTable) liveLocked() error { _ = p.dropped; return nil }

func (p *PTable) Lock()   { p.mu.Lock() }
func (p *PTable) Unlock() { p.mu.Unlock() }

// Rel owns a lockrank relation lock, like the facade's relation handle.
type Rel struct{ Mu lockrank.Relation }
