package sql

import "sync"

// StreamChunkRows is the output granularity of a ResultStream:
// NextChunk assembles at most this many projected rows per call. Large
// enough to amortise per-chunk serialization, small enough that the
// server's incremental flushes keep first-byte latency and peak memory
// bounded by a chunk rather than the whole result.
const StreamChunkRows = 4096

// Chunk is one window of a result, column-major: Len rows and, per
// output column, the cells of those rows. Projections, joins and
// COUNT/SUM/MIN/MAX report exact integers, but a column only has Ints
// when no cell can be NULL; AVG, and a single-row aggregate that may be
// NULL over an empty qualifying set, has Floats, with NaN for NULL.
type Chunk struct {
	Len  int
	Cols []Col
}

// Col is one output column of a Chunk: exactly one of Ints and Floats
// is set, holding Len cells.
type Col struct {
	Ints   []int64
	Floats []float64
}

// reset empties an integer chunk for the next window, keeping its
// column arrays.
func (c *Chunk) reset() {
	c.Len = 0
	for i := range c.Cols {
		c.Cols[i].Ints = c.Cols[i].Ints[:0]
	}
}

// intChunk returns an empty chunk of ncols integer columns, each with
// room for size cells.
func intChunk(ncols, size int) *Chunk {
	c := &Chunk{Cols: make([]Col, ncols)}
	for i := range c.Cols {
		c.Cols[i].Ints = make([]int64, 0, size)
	}
	return c
}

// Append appends src's rows to c, column by column. An empty c takes
// src's column kinds; otherwise both must have the same shape.
func (c *Chunk) Append(src *Chunk) {
	if c.Cols == nil {
		c.Cols = make([]Col, len(src.Cols))
		for i, col := range src.Cols {
			if col.Floats != nil {
				c.Cols[i].Floats = []float64{}
			}
		}
	}
	for i, col := range src.Cols {
		if col.Floats != nil {
			c.Cols[i].Floats = append(c.Cols[i].Floats, col.Floats[:src.Len]...)
		} else {
			c.Cols[i].Ints = append(c.Cols[i].Ints, col.Ints[:src.Len]...)
		}
	}
	c.Len += src.Len
}

// Rows returns c in row form: one float64 slice per row, all cut from
// one backing array the caller owns. Integers beyond 2^53 round to the
// nearest float64.
func (c *Chunk) Rows() [][]float64 {
	ncols := len(c.Cols)
	cells := make([]float64, c.Len*ncols)
	rows := make([][]float64, c.Len)
	for i := range rows {
		rows[i] = cells[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	for j, col := range c.Cols {
		if col.Floats != nil {
			for i, v := range col.Floats[:c.Len] {
				cells[i*ncols+j] = v
			}
			continue
		}
		for i, v := range col.Ints[:c.Len] {
			cells[i*ncols+j] = float64(v)
		}
	}
	return rows
}

// ResultStream yields one SELECT's output incrementally: the header is
// known up front, rows arrive in column-major chunks handed from the
// engine's scan (or join) through projection on demand. NextChunk is
// the stream; Next and Collect are its row-form adapters. Streams are
// single-consumer and not safe for concurrent use.
type ResultStream struct {
	// Columns are the output column headers.
	Columns []string
	// Ints is true per column when values are exact integers (projection
	// columns, COUNT/SUM/MIN/MAX); AVG reports a float.
	Ints []bool
	// Detached reports that every later NextChunk call works off
	// buffers the stream already owns — no relation storage is read
	// again. The executor sets it for value-only projections (single
	// scan-column results, including every partitioned-table select)
	// and for already-computed aggregates; catalog holders can then
	// drop their read locks as soon as the stream is built instead of
	// pinning the relation for the consumer's lifetime.
	Detached bool

	next func() (*Chunk, error)
	done bool
	err  error
	// closeFn tears down the stream's pipelined producers (cancelling
	// in-flight scans); nil for materialized streams.
	closeFn func()
	// scanDone is closed once the stream's producers have exited; nil
	// for materialized streams with no producers. Lock holders must
	// wait on it after Close before dropping read locks — a cancelled
	// worker may still be mid-morsel.
	scanDone <-chan struct{}
	// earlyRelease reports that NextChunk never reads relation storage —
	// only buffers the stream owns — once scanDone closes: value-only
	// projections. Lazily gathering streams (multi-column projections,
	// joins) keep it false and pin their relations until Close.
	earlyRelease bool
	// cleanup runs once when the stream ends — drained, errored or
	// closed, whichever comes first. ExecStream hooks the deadline
	// timer's cancel here so an early finish releases it.
	cleanup     func()
	cleanupOnce sync.Once
}

// addCleanup chains fn onto the stream-end hook.
func (s *ResultStream) addCleanup(fn func()) {
	if prev := s.cleanup; prev != nil {
		s.cleanup = func() { prev(); fn() }
		return
	}
	s.cleanup = fn
}

func (s *ResultStream) runCleanup() {
	if s.cleanup != nil {
		s.cleanupOnce.Do(s.cleanup)
	}
}

// Close cancels the stream's producers, if it has live ones. Idempotent;
// a drained stream needs no Close, but abandoning an unconsumed stream
// without one leaks the producers until their scan completes.
func (s *ResultStream) Close() {
	if s.closeFn != nil {
		s.closeFn()
	}
	s.runCleanup()
}

// ScanDone returns the scan-completion channel: closed once the
// stream's producers have exited, nil when the stream never had any.
// After Close, lock holders must wait on it before dropping read locks.
func (s *ResultStream) ScanDone() <-chan struct{} { return s.scanDone }

// EarlyRelease reports that the stream stops reading relation storage
// as soon as ScanDone closes — catalog holders can then release read
// locks mid-stream, even with a slow consumer still draining.
func (s *ResultStream) EarlyRelease() bool { return s.earlyRelease }

// newResultStream builds a stream over a generator. next returns the
// next non-empty chunk, nil once drained, or an error; after an error
// or nil the generator is not called again. A returned chunk need only
// stay valid until the following call.
func newResultStream(columns []string, ints []bool, next func() (*Chunk, error)) *ResultStream {
	return &ResultStream{Columns: columns, Ints: ints, next: next}
}

// emptyStream is a drained stream with just the header — LIMIT 0 and
// friends.
func emptyStream(columns []string, ints []bool) *ResultStream {
	return oneChunkStream(columns, ints, nil)
}

// oneChunkStream yields c, then drains. The chunk is already computed,
// so the stream is detached.
func oneChunkStream(columns []string, ints []bool, c *Chunk) *ResultStream {
	st := newResultStream(columns, ints, func() (*Chunk, error) {
		next := c
		c = nil
		return next, nil
	})
	st.Detached = true
	return st
}

// NextChunk returns the next chunk of the result, valid until the next
// call and not to be modified. A nil chunk means the stream is drained;
// an error ends the stream (subsequent calls repeat it).
func (s *ResultStream) NextChunk() (*Chunk, error) {
	if s.done {
		return nil, s.err
	}
	c, err := s.next()
	if err != nil {
		s.done, s.err = true, err
		s.runCleanup()
		return nil, err
	}
	if c == nil || c.Len == 0 {
		s.done = true
		s.runCleanup()
		return nil, nil
	}
	return c, nil
}

// Next is the row adapter over NextChunk: it returns the next chunk as
// rows the caller owns, nil once drained.
func (s *ResultStream) Next() ([][]float64, error) {
	c, err := s.NextChunk()
	if c == nil {
		return nil, err
	}
	return c.Rows(), nil
}

// Collect drains the stream into the one-shot Result form.
func (s *ResultStream) Collect() (*Result, error) {
	res := &Result{Columns: s.Columns, Ints: s.Ints}
	for {
		rows, err := s.Next()
		if err != nil {
			return nil, err
		}
		if rows == nil {
			return res, nil
		}
		res.Rows = append(res.Rows, rows...)
	}
}
