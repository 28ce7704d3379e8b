package engine

// Regression test for the Collect error-path leak the batchlifecycle
// analyzer flagged: chunks already collected when the stream reports an
// error came off the batch pool and must go back, or every failed ORDER
// BY barrier strands two pool buffers.

import (
	"context"
	"errors"
	"testing"
)

func TestCollectErrorPathRecyclesChunks(t *testing.T) {
	mark := markBatches()
	s := newChunkStream()
	const buffered = 2
	for i := 0; i < buffered; i++ {
		b := GetBatch()
		s.ch <- SelChunk{Rows: b.Sel[:1], Values: b.Val[:1], batch: b}
	}
	// The emitter publishes err strictly before closing ch; mimic that.
	s.err = errors.New("scan failed")
	close(s.ch)

	chunks, err := s.Collect()
	if err == nil || chunks != nil {
		t.Fatalf("Collect = (%v, %v), want (nil, error)", chunks, err)
	}
	if recycled := batchPuts.Load() - mark.puts; recycled != buffered {
		t.Fatalf("recycled %d pool batches on the error path, want %d", recycled, buffered)
	}
}

// TestForEachTaskCtx pins the barrier dispatcher's cancellation: a live
// ctx runs every task, and a canceled ctx returns its error without
// running the remainder.
func TestForEachTaskCtx(t *testing.T) {
	ran := make([]bool, 8)
	if err := ForEachTask(context.Background(), nil, 2, len(ran), func(_, i int) { ran[i] = true }); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("live ctx skipped task %d", i)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForEachTask(ctx, nil, 2, 4, func(int, int) { t.Error("task ran under canceled ctx") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: err = %v, want context.Canceled", err)
	}
}
