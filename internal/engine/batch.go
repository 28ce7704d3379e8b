package engine

import "sync"

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
