package engine

import (
	"sync"
	"sync/atomic"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/column"
	"amnesiadb/internal/expr"
)

// BatchSize is the number of tuples a vectorized kernel processes per
// invocation. It matches column.DefaultBlockSize so one batch covers one
// zone-mapped block: small enough that the selection and value buffers
// stay cache-resident, large enough to amortise per-batch overhead.
const BatchSize = 1024

// Batch is the unit of vectorized execution: a selection vector of tuple
// positions and the parallel value vector filled by the column scan
// kernel. Operators consume the two slices directly; kernels compact
// them in place, so no per-tuple allocation happens anywhere between
// storage and operator output.
type Batch struct {
	// Sel holds tuple positions (the selection vector).
	Sel []int32
	// Val holds the attribute values parallel to Sel.
	Val []int64
}

// batchPool recycles batches across queries. Executors are shared by
// concurrent readers, so scratch space is pooled per scan rather than
// stored on the Exec.
var batchPool = sync.Pool{
	New: func() any {
		return &Batch{Sel: make([]int32, BatchSize), Val: make([]int64, BatchSize)}
	},
}

// getHook and putHook, when non-nil, observe every pool hand-out and
// return; tests use them to pin that teardown and error paths recycle
// their batches.
var getHook, putHook func(*Batch)

// GetBatch returns a full-size batch from the pool.
func GetBatch() *Batch {
	b := batchPool.Get().(*Batch)
	if getHook != nil {
		getHook(b)
	}
	return b
}

// PutBatch returns a batch obtained from GetBatch to the pool.
func PutBatch(b *Batch) {
	if putHook != nil {
		putHook(b)
	}
	b.Sel = b.Sel[:BatchSize]
	b.Val = b.Val[:BatchSize]
	batchPool.Put(b)
}

// countMatches returns the number of rows satisfying pred under mode
// without materializing positions or values — the counting fast path
// behind COUNT(*) and both of Precision's passes — over the same morsel
// loop as every other scan. Exact-bounds predicates use the pure
// counting kernel; inexact ones run the filter pipeline and count
// survivors.
func (e *Exec) countMatches(c *column.Int64, pred expr.Expr, mode ScanMode) (int, error) {
	var active *bitvec.Vector
	if mode == ScanActive {
		active = e.t.Active()
	}
	lo, hi, exact := pred.Bounds()
	rowsPer, nm := morselGeometry(c)
	var total atomic.Int64
	err := ForEachTask(e.ctx, e.sched, e.workersFor(c.Len()), nm, func(_, m int) {
		start, end := m*rowsPer, (m+1)*rowsPer
		n := 0
		if exact {
			n = c.CountRangeIn(lo, hi, active, start, end)
		} else {
			scanMorselBatches(c, lo, hi, exact, pred, active, start, end, func(sel []int32, _ []int64) { n += len(sel) })
		}
		total.Add(int64(n))
	})
	return int(total.Load()), err
}
