package engine

import (
	"os"
	"sync/atomic"
	"testing"

	"amnesiadb/internal/engine/sched"
)

// batchGets and batchPuts count every batch the pool handed out and got
// back over the life of the test binary. The hooks are installed once,
// before any test starts a goroutine, so reading them never races; tests
// compare deltas (see batchMark).
var batchGets, batchPuts atomic.Int64

func TestMain(m *testing.M) {
	getHook = func(*Batch) { batchGets.Add(1) }
	putHook = func(*Batch) { batchPuts.Add(1) }
	// Start the process-global pool up front, so goroutine baselines the
	// tests take already include its workers.
	sched.Default()
	os.Exit(m.Run())
}

// batchMark snapshots the pool counters; outstanding reports how many
// batches handed out since the mark have not come back.
type batchMark struct{ gets, puts int64 }

func markBatches() batchMark { return batchMark{batchGets.Load(), batchPuts.Load()} }

func (m batchMark) outstanding() int64 {
	return (batchGets.Load() - m.gets) - (batchPuts.Load() - m.puts)
}
