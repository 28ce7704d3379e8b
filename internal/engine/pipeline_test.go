package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"amnesiadb/internal/engine/governor"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
)

// taskPipeline starts runPipeline over n indexed tasks with dense
// sequence numbers equal to the task index: produce(i) runs as steps of
// one pool query of the given width on sp, and the tasks' chunks are
// emitted strictly in index order. The pipeline tests drive the
// reorder stage, backpressure bound and teardown through it.
func taskPipeline(ctx context.Context, sp *sched.Pool, workers, n int, produce func(task int) ([]SelChunk, error)) *ChunkStream {
	s := newChunkStream()
	var next atomic.Int64
	claim := func() (int, int, bool) {
		i := int(next.Add(1) - 1)
		return i, i, i < n
	}
	runPipeline(ctx, s, sp, max(min(workers, n), 1), false, claim, produce, nil)
	return s
}

// drainStream consumes a chunk stream to the end, concatenating rows
// and values.
func drainStream(t *testing.T, st *ChunkStream) ([]int32, []int64) {
	t.Helper()
	var rows []int32
	var vals []int64
	for {
		c, ok, err := st.Next()
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		if !ok {
			return rows, vals
		}
		rows = append(rows, c.Rows...)
		vals = append(vals, c.Values...)
	}
}

// TestSelectChunkStreamMatchesSelect pins the pipeline's byte-identity:
// concatenating the streamed chunks must reproduce Select exactly, for
// every bitmap shape, predicate and parallelism — including the
// adaptive strides the scheduler grows into mid-scan.
func TestSelectChunkStreamMatchesSelect(t *testing.T) {
	for _, shape := range bitmapShapes {
		tb := parallelTable(t, shape)
		for name, pred := range equivalencePredicates() {
			ref := NewSilent(tb)
			ref.SetParallelism(1)
			want, err := ref.Select("a", pred, ScanActive)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, 4} {
				ex := NewSilent(tb)
				ex.SetParallelism(par)
				st, err := ex.SelectChunkStream(context.Background(), "a", pred, ScanActive)
				if err != nil {
					t.Fatal(err)
				}
				rows, vals := drainStream(t, st)
				if len(rows) != len(want.Rows) {
					t.Fatalf("%s/%s par=%d: %d rows, want %d", shape, name, par, len(rows), len(want.Rows))
				}
				for i := range rows {
					if rows[i] != want.Rows[i] || vals[i] != want.Values[i] {
						t.Fatalf("%s/%s par=%d: row %d = (%d,%d), want (%d,%d)",
							shape, name, par, i, rows[i], vals[i], want.Rows[i], want.Values[i])
					}
				}
				// The pipeline must report scan completion.
				select {
				case <-st.ScanDone():
				case <-time.After(5 * time.Second):
					t.Fatalf("%s/%s par=%d: ScanDone never closed after drain", shape, name, par)
				}
			}
		}
	}
}

// TestChunkPipelineEmitsInOrder pins the reorder stage: tasks finishing
// out of order (earlier tasks sleep longer) must still emit in task
// order.
func TestChunkPipelineEmitsInOrder(t *testing.T) {
	const n = 32
	st := taskPipeline(context.Background(), nil, 4, n, func(task int) ([]SelChunk, error) {
		// Invert completion order within each worker's stride.
		time.Sleep(time.Duration(n-task) * 100 * time.Microsecond)
		return []SelChunk{{Values: []int64{int64(task)}}}, nil
	})
	var got []int64
	for {
		c, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, c.Values...)
	}
	if len(got) != n {
		t.Fatalf("emitted %d chunks, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("chunk %d carries task %d; emission is out of order", i, v)
		}
	}
}

// TestChunkPipelineBackpressure pins the memory bound: with a stalled
// consumer, the producers must stop after the in-flight token budget
// plus the channel buffer, no matter how many tasks remain.
func TestChunkPipelineBackpressure(t *testing.T) {
	const n, workers = 200, 4
	var produced atomic.Int64
	st := taskPipeline(context.Background(), nil, workers, n, func(task int) ([]SelChunk, error) {
		produced.Add(1)
		return []SelChunk{{Values: []int64{int64(task)}}}, nil
	})
	// Do not consume: the pipeline must stall at its bound. The bound is
	// the in-flight token budget (tasks claimed but not yet fully
	// emitted) plus the chunks sitting in the channel buffer.
	bound := int64(pipelineInflight(workers) + pipelineChunkBuf)
	deadline := time.Now().Add(time.Second)
	var peak int64
	for time.Now().Before(deadline) {
		if peak = produced.Load(); peak > bound {
			t.Fatalf("stalled consumer saw %d tasks produced, bound is %d", peak, bound)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if peak == 0 {
		t.Fatal("no task produced at all")
	}
	// Draining releases the backpressure and completes every task in
	// order.
	var got []int64
	for {
		c, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, c.Values...)
	}
	if len(got) != n || produced.Load() != n {
		t.Fatalf("after drain: %d chunks, %d produced, want %d", len(got), produced.Load(), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("chunk %d = task %d after stall+drain", i, v)
		}
	}
}

// waitGoroutines polls until the goroutine count settles back to
// baseline (with slack for runtime helpers), failing after the deadline
// — the no-leak assertion behind the cancellation tests.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSelectChunkStreamCancelStopsWorkers pins the teardown contract: a
// cancelled context stops the morsel producers mid-scan (ScanDone
// closes), the consumer sees the cancellation as an error, and no
// goroutine outlives the stream.
func TestSelectChunkStreamCancelStopsWorkers(t *testing.T) {
	tb := parallelTable(t, "all-active")
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	ex := NewSilent(tb)
	ex.SetParallelism(4)
	st, err := ex.SelectChunkStream(ctx, "a", expr.True{}, ScanActive)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Next(); err != nil || !ok {
		t.Fatalf("first chunk: ok=%v err=%v", ok, err)
	}
	cancel()
	select {
	case <-st.ScanDone():
	case <-time.After(5 * time.Second):
		t.Fatal("ScanDone never closed after cancel: workers leaked")
	}
	// The channel drains whatever was emitted, then reports the cause.
	for {
		_, ok, err := st.Next()
		if ok {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("post-cancel error = %v, want context.Canceled", err)
		}
		break
	}
	waitGoroutines(t, baseline)
}

// TestChunkStreamCloseTearsDown pins Close as the consumer-side
// teardown: producers stop, ScanDone closes, the error is
// ErrStreamClosed, and goroutines settle.
func TestChunkStreamCloseTearsDown(t *testing.T) {
	tb := parallelTable(t, "every-other")
	baseline := runtime.NumGoroutine()
	ex := NewSilent(tb)
	ex.SetParallelism(2)
	st, err := ex.SelectChunkStream(context.Background(), "a", expr.True{}, ScanActive)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Next(); err != nil || !ok {
		t.Fatalf("first chunk: ok=%v err=%v", ok, err)
	}
	st.Close()
	st.Close() // idempotent
	select {
	case <-st.ScanDone():
	case <-time.After(5 * time.Second):
		t.Fatal("ScanDone never closed after Close")
	}
	for {
		_, ok, err := st.Next()
		if ok {
			continue
		}
		if !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("post-close error = %v, want ErrStreamClosed", err)
		}
		break
	}
	waitGoroutines(t, baseline)
}

// TestChunkPipelineProduceError pins the fail-fast path: a producer
// error surfaces to the consumer and tears the pipeline down.
func TestChunkPipelineProduceError(t *testing.T) {
	boom := errors.New("boom")
	st := taskPipeline(context.Background(), nil, 2, 16, func(task int) ([]SelChunk, error) {
		if task == 3 {
			return nil, boom
		}
		return []SelChunk{{Values: []int64{int64(task)}}}, nil
	})
	sawErr := false
	for {
		_, ok, err := st.Next()
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("error = %v, want boom", err)
			}
			sawErr = true
			break
		}
		if !ok {
			break
		}
	}
	if !sawErr {
		t.Fatal("producer error never surfaced")
	}
	select {
	case <-st.ScanDone():
	case <-time.After(5 * time.Second):
		t.Fatal("ScanDone never closed after producer error")
	}
}

// TestAdaptiveMorselsGrowAndCap unit-tests the cursor: tiny morsels
// double the stride geometrically up to the cap, claims stay contiguous
// and exhaustive, and the stride is observable.
func TestAdaptiveMorselsGrowAndCap(t *testing.T) {
	tb := parallelTable(t, "all-active")
	c := tb.MustColumn("a")
	cur := newAdaptiveMorsels(c)
	if got := cur.Stride(); got != MorselBlocks {
		t.Fatalf("initial stride = %d, want %d", got, MorselBlocks)
	}
	pc := &partCursor{parts: []scanPart{{c: c, cur: cur}}}
	pos, seq := 0, 0
	for {
		task, s, ok := pc.claim()
		if !ok {
			break
		}
		r := task.r
		if r.start != pos || s != seq {
			t.Fatalf("claim %d = [%d,%d), want start %d", s, r.start, r.end, pos)
		}
		pos, seq = r.end, seq+1
		cur.observe(0) // empty morsel: grow
	}
	if pos != c.Len() {
		t.Fatalf("claims covered %d rows, column has %d", pos, c.Len())
	}
	if got := cur.Stride(); got <= MorselBlocks || got > MaxMorselBlocks {
		t.Fatalf("stride after constant growth = %d, want in (%d, %d]", got, MorselBlocks, MaxMorselBlocks)
	}
	// Unbounded feedback saturates at the cap and stays there.
	for i := 0; i < 32; i++ {
		cur.observe(0)
	}
	if got := cur.Stride(); got != MaxMorselBlocks {
		t.Fatalf("stride cap = %d, want %d", got, MaxMorselBlocks)
	}
	// Dense morsels never grow the stride: that would multiply the rows
	// an in-flight pipeline task can hold.
	cur3 := newAdaptiveMorsels(c)
	cur3.observe(adaptGrowMaxRows + 1)
	if got := cur3.Stride(); got != MorselBlocks {
		t.Fatalf("dense morsel grew stride to %d", got)
	}
	// And a grown stride shrinks back once morsels turn dense, so a
	// sparse prefix cannot inflate the dense suffix's memory bound.
	cur4 := newAdaptiveMorsels(c)
	cur4.observe(0)
	cur4.observe(0)
	if got := cur4.Stride(); got != 4*MorselBlocks {
		t.Fatalf("grown stride = %d, want %d", got, 4*MorselBlocks)
	}
	cur4.observe(adaptGrowMaxRows + 1)
	if got := cur4.Stride(); got != 2*MorselBlocks {
		t.Fatalf("stride after dense morsel = %d, want %d", got, 2*MorselBlocks)
	}
	cur4.observe(adaptGrowMaxRows + 1)
	cur4.observe(adaptGrowMaxRows + 1)
	if got := cur4.Stride(); got != MorselBlocks {
		t.Fatalf("stride floor = %d, want base %d", got, MorselBlocks)
	}
}

// TestConcurrentChunkStreams races several pipelined streams over one
// table against materialized selects — the channel-handoff race test
// the CI -race job runs fully instrumented.
func TestConcurrentChunkStreams(t *testing.T) {
	tb := parallelTable(t, "random")
	pred := expr.NewRange(1<<10, 1<<16)
	ref := NewSilent(tb)
	ref.SetParallelism(1)
	want, err := ref.Select("a", pred, ScanActive)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(par int) {
			ex := NewSilent(tb)
			ex.SetParallelism(par)
			st, err := ex.SelectChunkStream(context.Background(), "a", pred, ScanActive)
			if err != nil {
				done <- err
				return
			}
			count := 0
			for {
				c, ok, err := st.Next()
				if err != nil {
					done <- err
					return
				}
				if !ok {
					break
				}
				count += len(c.Values)
			}
			if count != want.Count() {
				done <- errors.New("streamed count diverged")
				return
			}
			done <- nil
		}(1 + g%3)
		go func() {
			ex := NewSilent(tb)
			ex.SetParallelism(2)
			res, err := ex.Select("a", pred, ScanActive)
			if err == nil && res.Count() != want.Count() {
				err = errors.New("select count diverged")
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestChunkPipelineStallSpills pins spill-on-stall at the layer that
// implements it. With the stall armed and a consumer that never calls
// Next, every task is produced — far past the in-flight bound — and
// ScanDone closes while the consumer is idle; the later drain is in
// task order. On a scan, Close after a spill recycles every pooled
// chunk and releases every quota charge.
func TestChunkPipelineStallSpills(t *testing.T) {
	const n, workers = 200, 4
	var produced atomic.Int64
	st := taskPipeline(context.Background(), nil, workers, n, func(task int) ([]SelChunk, error) {
		produced.Add(1)
		return []SelChunk{{Values: []int64{int64(task)}}}, nil
	})
	st.DetachOnStall(20 * time.Millisecond)
	select {
	case <-st.ScanDone():
	case <-time.After(10 * time.Second):
		t.Fatalf("ScanDone never closed under a stalled consumer: %d of %d tasks produced (bound %d)",
			produced.Load(), n, pipelineInflight(workers)+pipelineChunkBuf)
	}
	if got := produced.Load(); got != n {
		t.Fatalf("stalled consumer: %d of %d tasks produced", got, n)
	}
	_, vals := drainStream(t, st)
	if len(vals) != n {
		t.Fatalf("drained %d chunks after the spill, want %d", len(vals), n)
	}
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("chunk %d = task %d after the spill", i, v)
		}
	}

	tb := parallelTable(t, "all-active")
	mark := markBatches()
	quota := governor.New(0).NewQuota(0)
	ex := NewSilent(tb)
	ex.SetParallelism(2)
	cs, err := ex.SelectChunkStream(governor.WithQuota(context.Background(), quota), "a", expr.True{}, ScanActive)
	if err != nil {
		t.Fatal(err)
	}
	cs.DetachOnStall(20 * time.Millisecond)
	select {
	case <-cs.ScanDone():
	case <-time.After(10 * time.Second):
		t.Fatal("scan never finished under a stalled consumer")
	}
	if want := int64(tb.Len()/BatchSize) * ChunkQuotaBytes; quota.Used() != want {
		t.Fatalf("spilled scan holds %d governed bytes, want %d (one charge per chunk)", quota.Used(), want)
	}
	cs.Close()
	if got := mark.outstanding(); got != 0 {
		t.Fatalf("Close after a spill left %d pool batches outstanding", got)
	}
	if got := quota.Used(); got != 0 {
		t.Fatalf("Close after a spill left %d governed bytes charged", got)
	}
}

// settledGoroutines returns the goroutine count once it has held steady
// for a few polls, so goroutines of earlier tests that are still
// exiting do not skew a baseline.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for same := 0; same < 5; {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestChunkStreamParkedGoroutines pins the pipeline's goroutine budget:
// a parked stream — cancellable ctx, stall armed, consumer idle,
// channel full — holds exactly one goroutine, the emitter, and none
// once closed.
func TestChunkStreamParkedGoroutines(t *testing.T) {
	tb := parallelTable(t, "all-active")
	baseline := settledGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex := NewSilent(tb)
	ex.SetParallelism(2)
	st, err := ex.SelectChunkStream(ctx, "a", expr.True{}, ScanActive)
	if err != nil {
		t.Fatal(err)
	}
	st.DetachOnStall(time.Hour)
	deadline := time.Now().Add(5 * time.Second)
	for len(st.ch) < pipelineChunkBuf {
		if time.Now().After(deadline) {
			t.Fatal("stream never filled its channel")
		}
		time.Sleep(time.Millisecond)
	}
	got := runtime.NumGoroutine() - baseline
	for got != 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		got = runtime.NumGoroutine() - baseline
	}
	if got != 1 {
		t.Fatalf("parked stream holds %d goroutines, want 1 (the emitter)", got)
	}
	st.Close()
	<-st.ScanDone()
	waitGoroutines(t, baseline)
}

// TestSelectChunkStreamPartsMatchesPartSelects pins the multi-part scan:
// its chunks concatenate to the parts' own Selects in part order, each
// chunk's Rows index its own part, and a limit ending inside the second
// part touches exactly the rows handed over, each on its own part's
// table.
func TestSelectChunkStreamPartsMatchesPartSelects(t *testing.T) {
	parts := []*table.Table{vectorTable(t, 3*BatchSize+100, 1000, 1), vectorTable(t, 5000, 1000, 2), vectorTable(t, 10, 1000, 3)}
	pred := expr.NewRange(100, 900)
	var want []*Result
	var rows []int32
	var vals []int64
	for _, p := range parts {
		res, err := NewSilent(p).Select("a", pred, ScanActive)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
		rows, vals = append(rows, res.Rows...), append(vals, res.Values...)
	}
	for _, par := range []int{1, 4} {
		ex := NewSilent(parts[0])
		ex.SetParallelism(par)
		st, err := ex.SelectPartsChunkStream(context.Background(), parts, "a", pred, ScanActive)
		if err != nil {
			t.Fatal(err)
		}
		gotRows, gotVals := drainStream(t, st)
		if !slices.Equal(gotRows, rows) || !slices.Equal(gotVals, vals) {
			t.Fatalf("par=%d: multi-part stream diverged from the parts' Selects", par)
		}
	}

	limit := len(want[0].Rows) + 5
	st, err := New(parts[0]).WithLimit(limit).SelectPartsChunkStream(context.Background(), parts, "a", pred, ScanActive)
	if err != nil {
		t.Fatal(err)
	}
	if _, got := drainStream(t, st); len(got) != limit {
		t.Fatalf("limited stream emitted %d rows, want %d", len(got), limit)
	}
	for i, p := range parts {
		touched := map[int32]bool{}
		if i == 0 {
			for _, r := range want[0].Rows {
				touched[r] = true
			}
		} else if i == 1 {
			for _, r := range want[1].Rows[:5] {
				touched[r] = true
			}
		}
		for r := 0; r < p.Len(); r++ {
			if n, w := p.AccessCount(r), touched[int32(r)]; (n == 1) != w || n > 1 {
				t.Fatalf("part %d row %d touched %d times, want touched=%v once", i, r, n, w)
			}
		}
	}
}

// TestSelectChunkStreamPartsOverBudget pins that a multi-part stream is
// governed: a quota below its chunk charges fails it with
// ErrResourceExhausted, leaving no pool batch outstanding and no byte
// charged.
func TestSelectChunkStreamPartsOverBudget(t *testing.T) {
	parts := []*table.Table{parallelTable(t, "all-active"), parallelTable(t, "random")}
	gov := governor.New(0)
	for _, par := range []int{1, 2} {
		quota := gov.NewQuota(256 << 10)
		mark := markBatches()
		ex := NewSilent(parts[0])
		ex.SetParallelism(par)
		st, err := ex.SelectPartsChunkStream(governor.WithQuota(context.Background(), quota), parts, "a", expr.True{}, ScanActive)
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := st.Collect()
		if !errors.Is(err, governor.ErrResourceExhausted) {
			t.Fatalf("par=%d: over-budget stream collected %d chunks, err %v, want ErrResourceExhausted", par, len(chunks), err)
		}
		if got := mark.outstanding(); got != 0 {
			t.Fatalf("par=%d: failed stream left %d pool batches outstanding", par, got)
		}
		if got := quota.Used(); got != 0 {
			t.Fatalf("par=%d: failed stream left %d governed bytes charged", par, got)
		}
		gov.Remove(quota)
	}
}
