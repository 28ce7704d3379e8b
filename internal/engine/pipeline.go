package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/column"
	"amnesiadb/internal/engine/governor"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
)

// This file is the engine's pipelined execution layer: instead of
// running a scan to completion and handing the caller a finished chunk
// list, morsel workers push chunks into a bounded channel while they are
// still scanning, and the consumer (the SQL result stream, and through
// it the HTTP serializer) drains concurrently. Time-to-first-chunk drops
// from O(full scan) to O(first morsel); a slow consumer exerts
// backpressure through the channel and the in-flight token budget, so
// peak memory stays bounded; and cancelling the stream's context tears
// the producers down mid-scan.
//
// Chunks are emitted in task order — parts in turn, each part's morsel
// ranges ascending — via a reorder stage: workers deposit
// completed tasks into a slot map and the emitter, the pipeline's one
// goroutine, drains slots in sequence, so workers never stall on
// ordering and the pipelined output is byte-identical to the serial
// scan. The emitter also watches every teardown signal (Close, the
// context, the end of production) and tears the pipeline down itself.
//
// Spill-on-stall (DetachOnStall, docs/ROBUSTNESS.md): a consumer that
// stops calling Next would park the producers on the bounded channel
// with the relation read locks held. Once a send has blocked past the
// threshold, that chunk and every later one go, in emit order, to a
// heap buffer Next serves after the channel, so the producers finish
// and the locks release while the output stays byte-identical.

// ErrStreamClosed is the error a ChunkStream reports after Close tears
// the pipeline down before the scan finished.
var ErrStreamClosed = errors.New("engine: chunk stream closed")

// errLimit is the stop cause of a pipeline whose emitter handed over its
// row limit: a clean end, which Next reports as a drained stream.
var errLimit = errors.New("engine: chunk stream limit reached")

// pipelineChunkBuf is the bounded channel capacity between the emitter
// and the consumer: a handful of batch-sized chunks, enough to keep the
// consumer fed across scheduling hiccups, small enough that a stalled
// consumer stops the producers almost immediately.
const pipelineChunkBuf = 4

// pipelineInflight bounds how many claimed-but-unconsumed tasks a
// pipeline with w workers may hold: every worker can be scanning one
// task with one more buffered ahead, plus slack so the emitter never
// starves. It bounds tasks, not bytes: a task is a morsel of up to
// MaxMorselBlocks blocks whose chunks are charged and handed over at
// once, so the governed bytes a stalled consumer holds in flight still
// grow with the adaptive morsel stride (ROADMAP item 10's flat half).
func pipelineInflight(w int) int { return 2*w + 2 }

// ChunkQuotaBytes is what one pooled chunk charges its query's resource
// quota: a full batch's selection vector (int32) plus value vector
// (int64), the fixed footprint the pool hands out regardless of how few
// rows qualified. Charged at produce time, released by RecycleChunk —
// so reorder slots, the bounded channel, the spill buffer and
// consumer-held chunks are all covered by one charge per chunk.
const ChunkQuotaBytes = BatchSize * (4 + 8)

// ChunkStream is the consumer handle of a pipelined scan: Next yields
// chunks in deterministic order while producers are still scanning,
// Close cancels the producers, and ScanDone reports when the pipeline
// has stopped reading storage. Single-consumer; Next must not be called
// concurrently.
type ChunkStream struct {
	ch       chan SelChunk
	stop     chan struct{}
	stopOnce sync.Once
	cause    error
	scanDone chan struct{}

	// limit, when positive, is the most rows the emitter hands over: the
	// chunk that reaches it is truncated and the pipeline stops after
	// it. touch, when set, gets the positions of every row the emitter
	// handed over, one call per part, each before the consumer can see
	// the stream end — before the last chunk under a limit, else before
	// the drain — and before ScanDone. Both are set before the pipeline
	// starts.
	limit int
	touch func(part int, rows []int32)

	// stall is the DetachOnStall threshold in nanoseconds, stored once;
	// armed closes when it is stored, so a send already blocked when it
	// arrives still arms its timer.
	stall atomic.Int64
	armed chan struct{}

	// spill holds the chunks emitted after a stall, in emit order; Next
	// serves it once ch has closed. closed marks Close: the buffer is
	// recycled and nothing more is appended.
	spillMu sync.Mutex
	spill   []SelChunk
	closed  bool

	// err is written by the emitter strictly before ch is closed;
	// consumers read it only after observing the close, so the channel
	// close is the publication barrier.
	err error
}

func newChunkStream() *ChunkStream {
	return &ChunkStream{
		ch:       make(chan SelChunk, pipelineChunkBuf),
		stop:     make(chan struct{}),
		scanDone: make(chan struct{}),
		armed:    make(chan struct{}),
	}
}

// DetachOnStall arms spill-on-stall: once a send to a consumer that
// has not taken a chunk blocks for threshold, the rest of the stream
// is buffered instead. Thresholds ≤ 0 and every call after the first
// are ignored. Safe to call while the pipeline runs.
func (s *ChunkStream) DetachOnStall(threshold time.Duration) {
	if threshold > 0 && s.stall.CompareAndSwap(0, int64(threshold)) {
		close(s.armed)
	}
}

// Next returns the next chunk. ok is false once the stream is drained or
// torn down; err then reports why (nil for a clean drain). Spilled
// chunks follow the channel's, in emit order.
func (s *ChunkStream) Next() (c SelChunk, ok bool, err error) {
	if c, ok = <-s.ch; ok {
		return c, true, nil
	}
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	if len(s.spill) > 0 {
		c, s.spill = s.spill[0], s.spill[1:]
		return c, true, nil
	}
	return SelChunk{}, false, s.err
}

// Close cancels the pipeline: producers stop claiming work, and the
// chunks the consumer will no longer take — buffered, spilled or still
// to come — are recycled; Next reports ErrStreamClosed once the channel
// drains. Idempotent; safe to call after the stream completed normally.
func (s *ChunkStream) Close() {
	s.closeWith(ErrStreamClosed)
	s.spillMu.Lock()
	spill := s.spill
	s.spill, s.closed = nil, true
	s.spillMu.Unlock()
	recycleChunks(spill)
	s.recycleBuffered()
}

func (s *ChunkStream) closeWith(err error) {
	s.stopOnce.Do(func() {
		s.cause = err
		close(s.stop)
	})
}

// recycleBuffered recycles what sits in the channel without waiting for
// more. Close and the emitter's teardown both call it, so chunks sent
// before or after Close are recycled exactly once.
func (s *ChunkStream) recycleBuffered() {
	for {
		select {
		case c, ok := <-s.ch:
			if !ok {
				return
			}
			RecycleChunk(c)
		default:
			return
		}
	}
}

// spillChunk appends c to the spill buffer, or reports false when Close
// already discarded the buffer.
func (s *ChunkStream) spillChunk(c SelChunk) bool {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	if s.closed {
		return false
	}
	s.spill = append(s.spill, c)
	return true
}

// ScanDone returns a channel closed once every producer has exited and
// the pipeline will never read relation storage again. Catalog holders
// use it to release read locks as soon as the scan — not the consumer —
// finishes; it always closes eventually, including after Close or a
// context cancellation.
func (s *ChunkStream) ScanDone() <-chan struct{} { return s.scanDone }

// Collect drains the stream into a flat chunk list — the materialized
// form of a scan — recycling nothing (the caller owns the chunks).
func (s *ChunkStream) Collect() ([]SelChunk, error) {
	var out []SelChunk
	for {
		c, ok, err := s.Next()
		if err != nil {
			// The chunks already collected came off the pool; dropping
			// them on the error path would leak their buffers for the
			// life of the query churn (ORDER BY barriers collect whole
			// scans before sorting).
			recycleChunks(out)
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, c)
	}
}

// runPipeline wires the ordered producer/consumer machinery behind a
// ChunkStream. claim hands out tasks with dense sequence numbers in
// emission order; produce runs one task (safe for concurrent calls with
// distinct tasks); finish, when non-nil, runs exactly once after every
// producer has exited and before ScanDone closes. The emitter applies
// the stream's limit and touch hook, so both follow emission order.
// ctx cancellation and Close are equivalent teardowns.
//
// Production is one sched query of the given width on sp (nil =
// sched.Default()): steps claim and produce tasks on shared pool
// workers, the in-flight token budget is enforced by try-acquire (a
// step that cannot take a token returns Blocked instead of holding a
// pool worker hostage), and the emitter wakes the query every time
// consuming a task returns a token. The emitter is the pipeline's only
// goroutine: every wait it makes also watches Close, ctx and the
// query's end, and when it stops it wakes a parked query so the next
// step observes stop, waits for the query to finish, and only then
// closes ScanDone and the channel. Nobody Waits on the query — the
// consumer blocks on a channel, not on the pool — which is why no
// stream is collected inside a pool step (see the package doc).
func runPipeline[T any](ctx context.Context, s *ChunkStream, sp *sched.Pool, workers int, short bool,
	claim func() (T, int, bool),
	produce func(T) ([]SelChunk, error),
	finish func()) {

	// An already-cancelled context must not start producing: check
	// synchronously so pre-cancelled queries fail deterministically
	// instead of racing the emitter.
	if ctx.Err() != nil {
		s.closeWith(context.Cause(ctx))
	}
	// Morsel-boundary enforcement: a query killed by its budget, a
	// process-level shed or its deadline stops before producing the
	// next task, on every pipeline.
	quota := governor.FromContext(ctx)
	sem := make(chan struct{}, pipelineInflight(workers))
	notify := make(chan struct{}, 1)
	var (
		mu    sync.Mutex
		ready = map[int][]SelChunk{}
		perr  error
	)

	// Steps never block — teardown and token exhaustion turn into
	// Done/Blocked — so shared pool workers cannot deadlock across
	// queries.
	q := poolOf(sp).Attach(workers, short, func() sched.Status {
		// Teardown has priority over a free token.
		select {
		case <-s.stop:
			return sched.Done
		default:
		}
		select {
		case sem <- struct{}{}:
		default:
			return sched.Blocked
		}
		task, seq, ok := claim()
		if !ok {
			<-sem
			return sched.Done
		}
		var chunks []SelChunk
		err := quota.Check()
		if err == nil {
			chunks, err = produce(task)
		}
		mu.Lock()
		if err != nil && perr == nil {
			perr = err
		}
		ready[seq] = chunks
		mu.Unlock()
		select {
		case notify <- struct{}{}:
		default:
		}
		if err != nil {
			// Fail fast; the recorded error wins over the close cause.
			s.closeWith(err)
			return sched.Done
		}
		return sched.Ran
	})

	go func() { // the emitter: drains slots in sequence order
		ctxDone, qDone := ctx.Done(), q.Done()
		// ended handles the query finishing: production is over, and a
		// panicking step — contained by the pool — becomes the stream
		// error so the consumer unblocks with a cause instead of
		// hanging on a stream nobody will ever fill.
		ended := func() {
			qDone = nil
			if pan, _ := q.Panicked(); pan != nil {
				s.closeWith(fmt.Errorf("engine: producer panicked: %v", pan))
			}
		}
		spilling := false
		// send hands c to the consumer. The fast path never blocks; a
		// send that would block arms the stall timer once DetachOnStall
		// has set a threshold, and when it fires c and every later
		// chunk go to the spill buffer. false means the pipeline is
		// stopping and c was not handed over.
		send := func(c SelChunk) bool {
			select {
			case <-s.stop:
				return false
			case <-ctxDone:
				s.closeWith(context.Cause(ctx))
				return false
			default:
			}
			if spilling {
				return s.spillChunk(c)
			}
			select {
			case s.ch <- c:
				return true
			default:
			}
			armed := s.armed
			var stalled <-chan time.Time
			for {
				select {
				case s.ch <- c:
					return true
				case <-armed:
					armed, stalled = nil, time.After(time.Duration(s.stall.Load()))
				case <-stalled:
					spilling = true
					return s.spillChunk(c)
				case <-s.stop:
					return false
				case <-ctxDone:
					s.closeWith(context.Cause(ctx))
					return false
				case <-qDone:
					ended()
				}
			}
		}

		// emitted holds the handed-over rows of part touchPart not yet
		// touched; parts arrive in turn, so each flushes once.
		var emitted []int32
		touchPart := 0
		emit := func() error {
			next := 0
			// left counts the limit down; without one it only goes
			// negative.
			left := s.limit
			for {
				mu.Lock()
				chunks, have := ready[next]
				delete(ready, next)
				err := perr
				mu.Unlock()
				if err != nil {
					recycleChunks(chunks)
					return err
				}
				if have {
					for i, c := range chunks {
						last := left > 0 && len(c.Values) >= left
						if last {
							c.Values, c.Rows = c.Values[:left], c.Rows[:left]
						}
						left -= len(c.Values)
						if s.touch != nil {
							if c.part != touchPart && len(emitted) > 0 {
								s.touch(touchPart, emitted)
								emitted = nil
							}
							touchPart = c.part
							emitted = append(emitted, c.Rows...)
							if last {
								s.touch(touchPart, emitted)
								emitted = nil
							}
						}
						if !send(c) {
							recycleChunks(chunks[i:])
							return nil
						}
						if last {
							recycleChunks(chunks[i+1:])
							s.closeWith(errLimit)
							return nil
						}
					}
					<-sem
					q.Wake()
					next++
					continue
				}
				if qDone == nil {
					return nil // all tasks claimed, produced and emitted
				}
				select {
				case <-notify:
				case <-s.stop:
					return nil
				case <-ctxDone:
					s.closeWith(context.Cause(ctx))
					return nil
				case <-qDone:
					ended()
				}
			}
		}
		err := emit()

		// Teardown: touches land before the consumer can see the end,
		// and storage is released only after the last producer step.
		if len(emitted) > 0 {
			s.touch(touchPart, emitted)
		}
		q.Wake() // a parked query must observe stop
		<-q.Done()
		if finish != nil {
			finish()
		}
		for _, chunks := range ready { // no producer runs any more
			recycleChunks(chunks)
		}
		if err == nil {
			select {
			case <-s.stop:
				if s.cause != errLimit {
					err = s.cause
				}
			default:
			}
		}
		s.err = err
		s.spillMu.Lock()
		closed := s.closed
		s.spillMu.Unlock()
		if closed {
			s.recycleBuffered()
		}
		close(s.scanDone)
		close(s.ch)
	}()
}

// recycleChunks returns pool-shaped chunk buffers to the batch pool.
func recycleChunks(chunks []SelChunk) {
	for _, c := range chunks {
		RecycleChunk(c)
	}
}

// RecycleChunk returns a chunk's batch to the pool once the consumer
// has projected it. Only a scan's chunks, which keep the pooled batch
// their buffers came from, are recycled; a chunk with no batch, the
// zero chunk among them, is ignored. Recycling also releases the
// chunk's resource-quota charge, closing the loop opened at produce
// time.
func RecycleChunk(c SelChunk) {
	if c.batch == nil {
		return
	}
	c.quota.Release(ChunkQuotaBytes)
	PutBatch(c.batch)
}

// Adaptive morsel sizing: the scheduler starts at MorselBlocks and
// doubles the stride after every morsel that qualifies at most one
// batch — the signature of a highly selective predicate over a huge
// column, where fixed-size morsels spend as much time on scheduling
// atomics and chunk bookkeeping as on scanning — and halves it after a
// denser one. Growth keys on output alone: a sparse morsel's output
// stays around a chunk no matter the stride, so growing it is free,
// while growing a dense scan's stride would multiply the rows one
// in-flight pipeline task can hold and blow the stalled-consumer memory
// bound. Output is a function of data and predicate, so the stride
// sequence — and with it per-run latency — never flips on scheduler
// noise the way a wall-clock gate does. Growth is capped so a
// mispredicted stride never destroys work-stealing balance, and because
// claimed ranges are contiguous and emitted in claim order, results
// stay byte-identical at every stride.
const (
	// MaxMorselBlocks caps adaptive stride growth at 16x the base
	// morsel: 1Mi rows per morsel at the default block size.
	MaxMorselBlocks = 16 * MorselBlocks
	// adaptGrowMaxRows is the qualifying-output ceiling for growth: a
	// morsel compacting to at most one batch is doing mostly skipping,
	// not producing.
	adaptGrowMaxRows = BatchSize
)

// rowRange is one claimed scan range [start, end).
type rowRange struct{ start, end int }

// adaptiveMorsels is one table's morsel cursor: claim hands out
// contiguous ranges of the current stride, observe grows the stride
// after a morsel that qualifies next to nothing and shrinks it after a
// denser one. One mutex guards both — a morsel is many thousands of
// rows, so the lock is cold.
// A cursor carrying an index plan hands out the whole column as its one
// task, answered from the index.
type adaptiveMorsels struct {
	mu        sync.Mutex
	blockRows int
	total     int
	pos       int
	stride    int
	index     *indexPlan
}

func newAdaptiveMorsels(c *column.Int64) *adaptiveMorsels {
	return &adaptiveMorsels{blockRows: c.BlockSize(), total: c.Len(), stride: MorselBlocks}
}

// scanPart is one table of a scan: the column it reads, the active
// bitmap under ScanActive (nil under ScanAll) and its morsel cursor.
type scanPart struct {
	t      *table.Table
	c      *column.Int64
	active *bitvec.Vector
	cur    *adaptiveMorsels
}

// newPart plans t's part of a scan of col under pred. When planIndex
// picks the index the cursor is one task answered from it. Otherwise it
// is the adaptive cursor, seeded from the table's last recorded
// effective stride so steady-state scans skip the warm-up doublings. A
// stale hint is self-correcting: observe shrinks an oversized stride
// within a couple of morsels, and results are stride-independent by
// construction.
func newPart(t *table.Table, col string, pred expr.Expr, mode ScanMode) (scanPart, error) {
	c, err := t.Column(col)
	if err != nil {
		return scanPart{}, err
	}
	p := scanPart{t: t, c: c, cur: newAdaptiveMorsels(c)}
	if mode == ScanActive {
		p.active = t.Active()
	}
	p.cur.index = planIndex(c, pred)
	if h := t.ScanStrideHint(); p.cur.index == nil && h >= MorselBlocks && h <= MaxMorselBlocks {
		p.cur.stride = h
	}
	return p, nil
}

// newParts plans one part per table, in order, of a scan of col under
// pred.
func newParts(tables []*table.Table, col string, pred expr.Expr, mode ScanMode) ([]scanPart, error) {
	parts := make([]scanPart, len(tables))
	for i, t := range tables {
		p, err := newPart(t, col, pred, mode)
		if err != nil {
			return nil, err
		}
		parts[i] = p
	}
	return parts, nil
}

// morsels is the part's share of a barrier's tasks: the whole column as
// one task when the index answers it, else its fixed morsels of
// MorselBlocks blocks.
func (p scanPart) morsels() (rowsPer, n int) {
	if p.cur.index != nil {
		return p.c.Len(), 1
	}
	rowsPer = MorselBlocks * p.c.BlockSize()
	return rowsPer, (p.c.Len() + rowsPer - 1) / rowsPer
}

// scanWorkers is the worker count and pool priority of a scan over
// parts: the knob resolved for the rows their morsel cursors cover, or
// one short task's worth when the index answers every part.
func (e *Exec) scanWorkers(parts []scanPart) (workers int, short bool) {
	rows, indexed := 0, true
	for _, p := range parts {
		if p.cur.index == nil {
			rows, indexed = rows+p.c.Len(), false
		}
	}
	if indexed {
		return 1, true
	}
	return e.workersFor(rows), shortScan(rows)
}

// scan runs the scan pipeline over one claimed range of the part — the
// morsel body of the barrier and the stream alike — and feeds what
// qualified back into the stride; an index cursor's one task runs its
// plan instead.
func (p scanPart) scan(pred expr.Expr, r rowRange) []*Batch {
	if p.cur.index != nil {
		return p.cur.index.scan(p.c, pred, p.active)
	}
	batches := collectChunks(p.c, pred, p.active, r.start, r.end)
	qual := 0
	for _, b := range batches {
		qual += len(b.Sel)
	}
	p.cur.observe(qual)
	return batches
}

// recordStride stores a finished morsel scan's effective stride as the
// table's seed for the next one.
func (p scanPart) recordStride() {
	if p.cur.index == nil {
		p.t.RecordScanStride(p.cur.Stride())
	}
}

func (a *adaptiveMorsels) claim() (rowRange, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pos >= a.total {
		return rowRange{}, false
	}
	end := a.pos + a.stride*a.blockRows
	if end > a.total || a.index != nil {
		end = a.total
	}
	r := rowRange{start: a.pos, end: end}
	a.pos = end
	return r, true
}

// observe feeds one morsel's qualifying-row count back into the stride:
// near-empty morsels grow it; dense morsels shrink it back toward the
// base. The shrink matters when selectivity shifts mid-column (a sparse
// prefix followed by a dense suffix, the shape of time-ordered data
// with a recent-values predicate): without it, a stride grown during
// the sparse region would let every in-flight task of the dense region
// hold a full max-stride morsel's worth of chunks, multiplying the
// stalled-consumer memory bound.
func (a *adaptiveMorsels) observe(qualRows int) {
	a.mu.Lock()
	if qualRows <= adaptGrowMaxRows {
		a.stride = min(2*a.stride, MaxMorselBlocks)
	} else {
		a.stride = max(a.stride/2, MorselBlocks)
	}
	a.mu.Unlock()
}

// Stride returns the current stride in blocks.
func (a *adaptiveMorsels) Stride() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stride
}

// SelectChunkStream is the pipelined form of Select: qualifying chunks
// arrive over a bounded channel while morsel workers are still
// scanning, in insertion order, byte-identical to Select's output when
// concatenated. It is SelectPartsChunkStream over e's table alone.
func (e *Exec) SelectChunkStream(ctx context.Context, col string, pred expr.Expr, mode ScanMode) (*ChunkStream, error) {
	return e.SelectPartsChunkStream(ctx, []*table.Table{e.t}, col, pred, mode)
}

// partTask is one task of a scan: a claimed range of one part.
type partTask struct {
	part int
	r    rowRange
}

// partCursor hands out a scan's tasks: every range of each part's cursor
// in turn, parts in order, with sequence numbers dense across parts.
type partCursor struct {
	mu    sync.Mutex
	parts []scanPart
	i     int
	seq   int
}

func (pc *partCursor) claim() (partTask, int, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for ; pc.i < len(pc.parts); pc.i++ {
		if r, ok := pc.parts[pc.i].cur.claim(); ok {
			pc.seq++
			return partTask{part: pc.i, r: r}, pc.seq - 1, true
		}
	}
	return partTask{}, 0, false
}

// SelectPartsChunkStream streams col's tuples satisfying pred over
// parts, tables scanned one after another as if concatenated: the chunks
// of each part come in its insertion order, parts in the given order,
// and a chunk's Rows are positions in its own part's table. e supplies
// the knob, pool, limit and touch flag; each part brings its own column,
// active bitmap, index plan and stride hint. Every chunk is pooled and
// charged to the query's quota at produce time. The access-frequency
// feedback is one TouchMany per part of exactly the rows the stream
// emitted from it, complete before the consumer can see the stream end.
// Under WithLimit the stream stops after its limit, across parts,
// truncating the chunk that reaches it. Cancelling ctx (or calling
// Close) stops the workers after their current morsel; ScanDone reports
// when storage is no longer read.
func (e *Exec) SelectPartsChunkStream(ctx context.Context, tables []*table.Table, col string, pred expr.Expr, mode ScanMode) (*ChunkStream, error) {
	parts, err := newParts(tables, col, pred, mode)
	if err != nil {
		return nil, err
	}
	workers, short := e.scanWorkers(parts)
	s := newChunkStream()
	s.limit = e.limit
	if e.touch && mode == ScanActive {
		s.touch = func(part int, rows []int32) { parts[part].t.TouchMany(rows) }
	}

	quota := governor.FromContext(ctx)
	produce := func(task partTask) ([]SelChunk, error) {
		batches := parts[task.part].scan(pred, task.r)
		if len(batches) == 0 {
			return nil, nil
		}
		chunks := make([]SelChunk, len(batches))
		for i, b := range batches {
			// Charge each pooled chunk the query keeps in flight before
			// it enters the reorder stage; RecycleChunk releases the
			// charge wherever the chunk's journey ends. On failure the
			// morsel's batches go straight back to the pool — already
			// charged chunks settle through their recycle — and the
			// latched exhaustion tears the pipeline down.
			if err := quota.Acquire(ChunkQuotaBytes); err != nil {
				for _, bb := range batches[i:] {
					PutBatch(bb)
				}
				recycleChunks(chunks[:i])
				return nil, err
			}
			chunks[i] = SelChunk{Rows: b.Sel, Values: b.Val, part: task.part, batch: b, quota: quota}
		}
		return chunks, nil
	}
	finish := func() {
		for _, p := range parts {
			p.recordStride()
		}
	}
	runPipeline(ctx, s, e.sched, workers, short, (&partCursor{parts: parts}).claim, produce, finish)
	return s, nil
}
