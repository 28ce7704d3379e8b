package partition

// Regression tests for the context-threaded shard reads: the ctxflow
// analyzer once flagged the shard reads for dropping the request
// context, and a canceled context must win over shard work.

import (
	"context"
	"errors"
	"testing"

	"amnesiadb/internal/expr"
)

func TestFanOutHonorsCanceledContext(t *testing.T) {
	s := newSet(t, 4, 400)
	if err := s.Insert([]int64{10, 260, 510, 760}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pred := expr.NewRange(0, 1000)

	if cs, err := s.ScanChunkStream(ctx, pred, 0, 0); err != nil {
		t.Errorf("ScanChunkStream on canceled ctx: %v", err)
	} else if _, err := cs.Collect(); !errors.Is(err, context.Canceled) {
		t.Errorf("collected ScanChunkStream on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := s.Aggregate(ctx, pred); !errors.Is(err, context.Canceled) {
		t.Errorf("Aggregate on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, _, _, err := s.Precision(ctx, pred); !errors.Is(err, context.Canceled) {
		t.Errorf("Precision on canceled ctx: err = %v, want context.Canceled", err)
	}

	// A live ctx and the ctx-less Select must keep working unchanged.
	if _, err := s.Select(0, 1000); err != nil {
		t.Errorf("Select without ctx: %v", err)
	}
	if _, err := s.Aggregate(context.Background(), pred); err != nil {
		t.Errorf("Aggregate under a live ctx: %v", err)
	}
}
