// Package server exposes an amnesiadb instance over HTTP, turning the
// embedded library into the small network-facing DBMS the paper
// envisions operating "with limited tuning knobs". Endpoints:
//
//	POST /query        {"sql": "SELECT ..."}            -> rows as JSON
//	POST /insert       {"table": "t", "columns": {...}} -> new stats
//	POST /policy       {"table": "t", "strategy": "rot", "budget": 1000}
//	POST /partitioned  {"table": "t", "column": "v", "domain": 1000, "parts": 4, "strategy": "uniform", "budget": 100}
//	GET  /stats?table=t
//	GET  /tables
//	GET  /precision?table=t&col=a&lo=0&hi=100
//
// /query serves the whole relation catalog — flat tables, partitioned
// tables and two-table JOINs — and streams its response as a pipeline:
// the engine's morsel workers push scan chunks into a bounded channel
// while they are still scanning, projection into column-major chunks
// and JSON serialization run chunk by chunk, and the request context
// scopes the producers. A pipelined select flushes (http.Flusher) after
// each chunk, so its first bytes leave after the first morsel, a slow
// client exerts backpressure that bounds server-side memory to a few
// chunks, and a disconnected client cancels the scan. A materialized answer —
// cache hit, aggregate, sort, join, LIMIT 0 — never flushes: one that
// fits net/http's 2 KiB buffer leaves in one write with a
// Content-Length, a larger one as the connection buffer fills. A query
// rejected up front still gets a clean 400/404/500; a failure after
// streaming has begun cannot retract the 200, so the JSON body is
// terminated with a trailing "error" member — clients must treat its
// presence (or a body that fails to parse) as a failed query.
//
// Request bodies for /query and /insert are decoded strictly by one
// hand-rolled decoder (decode.go): unknown, duplicate or
// case-mismatched members, null, and trailing data are 400s. All
// responses are JSON; errors use HTTP status codes with a JSON body
// {"error": "..."}.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"amnesiadb"
	"amnesiadb/internal/sql"
)

// Config tunes the serving layer's admission control. The zero value
// admits every query at once.
type Config struct {
	// MaxQueries bounds the queries executing concurrently; arrivals
	// beyond it queue. Zero means unlimited.
	MaxQueries int
	// QueueDepth is the shed watermark: arrivals finding this many
	// queries already waiting for a slot are rejected immediately with
	// 429 and a Retry-After header rather than queued — bounded queues
	// keep overload latency bounded instead of unbounded. Zero means
	// twice MaxQueries.
	QueueDepth int
}

// retryAfter is the Retry-After header, in seconds, sent with 429s and
// with a degraded database's 503s.
const retryAfter = "1"

// Server routes HTTP requests to a DB.
type Server struct {
	db  *amnesiadb.DB
	mux *http.ServeMux

	// slots is the admission semaphore for /query: one token per
	// executing query. nil disables admission control.
	slots      chan struct{}
	queueDepth int64
	// queued counts requests waiting for a slot; past queueDepth new
	// arrivals shed.
	queued atomic.Int64
	// draining flags graceful shutdown: new queries get 503 while
	// in-flight ones finish.
	draining atomic.Bool
}

// New returns a Server wrapping db with unlimited admission.
func New(db *amnesiadb.DB) *Server { return NewConfigured(db, Config{}) }

// NewConfigured returns a Server wrapping db under the given admission
// configuration.
func NewConfigured(db *amnesiadb.DB, cfg Config) *Server {
	s := &Server{db: db, mux: http.NewServeMux()}
	if maxQ := cfg.MaxQueries; maxQ > 0 {
		s.slots = make(chan struct{}, maxQ)
		s.queueDepth = int64(cfg.QueueDepth)
		if s.queueDepth == 0 {
			s.queueDepth = int64(2 * maxQ)
		}
	}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /insert", s.handleInsert)
	s.mux.HandleFunc("POST /policy", s.handlePolicy)
	s.mux.HandleFunc("POST /partitioned", s.handleCreatePartitioned)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /tables", s.handleTables)
	s.mux.HandleFunc("GET /precision", s.handlePrecision)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// StartDraining moves the server into graceful shutdown: new queries
// are refused with 503 while requests already admitted run to
// completion. The caller then drains connections via http.Server.Shutdown.
func (s *Server) StartDraining() { s.draining.Store(true) }

// ServeHTTP implements http.Handler. Every request runs under panic
// recovery: a handler bug answers that one request with a 500 instead
// of killing the connection (or, for panics escaping the serving
// goroutine, the process). Nothing can retract an already-committed
// response, so the recovery wrapper tracks whether the handler wrote a
// status and only sends the 500 body when it did not.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &committedWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			if !cw.committed {
				writeErr(cw, http.StatusInternalServerError,
					fmt.Errorf("internal error: %v", rec))
			}
			// Keep the stack observable without crashing the server.
			debug.PrintStack()
		}
	}()
	s.mux.ServeHTTP(cw, r)
}

// committedWriter remembers whether a status line has been sent, so the
// panic recovery path knows whether a 500 can still be written.
type committedWriter struct {
	http.ResponseWriter
	committed bool
}

func (c *committedWriter) WriteHeader(status int) {
	c.committed = true
	c.ResponseWriter.WriteHeader(status)
}

func (c *committedWriter) Write(b []byte) (int, error) {
	c.committed = true
	return c.ResponseWriter.Write(b)
}

// Flush preserves http.Flusher through the wrapper; streaming responses
// depend on it.
func (c *committedWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeMutErr maps a mutation failure to its status. A durability
// degradation (ErrReadOnly) is the server's condition, not the
// client's: it answers 503 with Retry-After so well-behaved clients
// back off and retry against a restarted (recovered) instance.
func (s *Server) writeMutErr(w http.ResponseWriter, fallback int, err error) {
	if errors.Is(err, amnesiadb.ErrReadOnly) {
		w.Header().Set("Retry-After", retryAfter)
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeErr(w, fallback, err)
}

// queryRequest is the POST /query body; decodeQuery parses it.
type queryRequest struct {
	SQL string `json:"sql"`
}

// bufPool recycles the per-request byte buffers: the request body
// readBody decodes from, and the one the stream loop assembles each
// chunk's JSON into — one pooled buffer and one Write per chunk, no
// per-row allocation. Buffers that grew beyond bufMax are dropped
// instead of pooled so one giant body or row cannot pin memory forever.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 32<<10)
		return &b
	},
}

const bufMax = 1 << 20

// putBuf returns buf, grown from the pooled *bufp, to bufPool.
func putBuf(bufp *[]byte, buf []byte) {
	if cap(buf) <= bufMax {
		*bufp = buf[:0]
		bufPool.Put(bufp)
	}
}

// appendJSONFloat appends v exactly as encoding/json renders a float64
// — 'f' formatting in the human range, 'e' with a trimmed exponent
// outside it — so the hand-rolled cell encoder is byte-identical to the
// json.Marshal output it replaces (pinned by TestAppendChunkJSONMatchesEncodingJSON).
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	// Integral floats (SUM/MIN/MAX of int64 columns) skip the float
	// formatter: below 2^53 'f' prints exactly the integer's digits.
	// Negative zero is the one integral value whose sign AppendInt drops.
	if v == math.Trunc(v) && abs < 1<<53 && !(v == 0 && math.Signbit(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9, as encoding/json does
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendIntCell appends an integer cell as appendJSONFloat renders
// float64(v) — the bytes the float row form always produced. Up to
// 2^53 in magnitude a float64 holds v exactly and prints its digits, so
// they are written straight from the integer; beyond, the cell is
// rounded to the nearest float64 like the row form rounds it (pinned by
// FuzzAppendIntCell).
func appendIntCell(b []byte, v int64) []byte {
	if v < -1<<53 || v > 1<<53 {
		return appendJSONFloat(b, float64(v))
	}
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
	}
	return appendDecimal(b, u)
}

// digitPairs holds "00" to "99" back to back.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10 holds 10^0 to 10^19, every power of ten a uint64 holds.
var pow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// appendDecimal appends u's decimal digits, two at a time from the
// last, each into its final place in b. strconv.AppendInt formats into
// a scratch array and copies the digits out; on /query that copy cost
// a third as much as the formatting itself.
func appendDecimal(b []byte, u uint64) []byte {
	if u < 10 {
		return append(b, byte('0'+u))
	}
	// bits.Len64(u)*1233>>12 is floor(log10(2^Len64(u))), one short of
	// u's digit count or equal to it.
	n := bits.Len64(u) * 1233 >> 12
	if u >= pow10[n] {
		n++
	}
	b = slices.Grow(b, n)
	i := len(b) + n
	b = b[:i]
	for u >= 100 {
		q := u / 100
		r := 2 * (u - 100*q)
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

// appendFloatCell appends a float cell, turning the NaN that stands in
// for an empty-set aggregate's NULL into a JSON null — encoding/json
// rejects NaN outright.
func appendFloatCell(b []byte, v float64) []byte {
	if math.IsNaN(v) {
		return append(b, "null"...)
	}
	return appendJSONFloat(b, v)
}

// appendChunkJSON appends c's rows as JSON arrays, each preceded by a
// comma unless it is the response's first row, reading every cell
// straight from its column.
func appendChunkJSON(b []byte, c *sql.Chunk, first bool) []byte {
	for i := 0; i < c.Len; i++ {
		if !first || i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j := range c.Cols {
			if j > 0 {
				b = append(b, ',')
			}
			if col := &c.Cols[j]; col.Floats != nil {
				b = appendFloatCell(b, col.Floats[i])
			} else {
				b = appendIntCell(b, col.Ints[i])
			}
		}
		b = append(b, ']')
	}
	return b
}

// queryHeader is the leading members of a streamed query response; the
// rows array and the optional trailing error member are appended by
// streamResult. appendQueryHeader renders it.
type queryHeader struct {
	Columns []string `json:"columns"`
	// Ints is per-column type info: true when values are exact integers
	// (projections, COUNT/SUM/MIN/MAX), false for AVG's floats — so
	// clients can tell 2.0 from 2.
	Ints []bool `json:"ints"`
}

// appendQueryHeader appends json.Marshal(queryHeader{columns, ints})
// reopened with `,"rows":[`, byte for byte (pinned by FuzzQueryHeader).
func appendQueryHeader(b []byte, columns []string, ints []bool) []byte {
	b = appendJSONArray(append(b, `{"columns":`...), columns, appendJSONString)
	b = appendJSONArray(append(b, `,"ints":`...), ints, strconv.AppendBool)
	return append(b, `,"rows":[`...)
}

// appendJSONArray appends vs as a JSON array, each element through
// elem; a nil slice is null, as encoding/json has it.
func appendJSONArray[T any](b []byte, vs []T, elem func([]byte, T) []byte) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, v)
	}
	return append(b, ']')
}

// appendJSONString appends s as encoding/json renders a string. Plain
// printable ASCII is quoted as it is; a string with anything
// encoding/json escapes or rewrites — quotes, backslashes, <>&, control
// bytes, any byte ≥ 0x80 — goes through json.Marshal whole.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// queryStatus maps a Query error to its HTTP status: malformed SQL is
// the client's fault (400), a missing table is addressable but absent
// (404), a query over its memory budget — or shed by the governor under
// process-wide pressure — is a too-large request (413), a query past
// its deadline timed out (408), anything else is the server's problem
// (500).
func queryStatus(err error) int {
	switch {
	case errors.Is(err, amnesiadb.ErrUnknownTable):
		return http.StatusNotFound
	case errors.Is(err, sql.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, amnesiadb.ErrResourceExhausted):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, amnesiadb.ErrQueryDeadline), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// errOverloaded is the 429 body; the paired Retry-After header tells
// well-behaved clients when to come back.
var errOverloaded = errors.New("server overloaded: concurrent-query limit and queue are full")

// errDraining is the 503 body during graceful shutdown.
var errDraining = errors.New("server draining: shutting down, not admitting new queries")

// admit applies admission control for one /query request: it acquires
// an execution slot, queueing while fewer than queueDepth requests
// wait and shedding with 429 + Retry-After beyond that. It returns a
// non-nil release exactly when the request may proceed; otherwise the
// response has been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func()) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, errDraining)
		return nil
	}
	if s.slots == nil {
		return func() {}
	}
	select {
	case s.slots <- struct{}{}:
	default:
		// All slots busy: wait in the bounded queue or shed.
		if s.queued.Add(1) > s.queueDepth {
			s.queued.Add(-1)
			w.Header().Set("Retry-After", retryAfter)
			writeErr(w, http.StatusTooManyRequests, errOverloaded)
			return nil
		}
		select {
		case s.slots <- struct{}{}:
			s.queued.Add(-1)
		case <-r.Context().Done():
			// Client gave up while queued; nothing to write to.
			s.queued.Add(-1)
			return nil
		}
	}
	return func() { <-s.slots }
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()
	req, err := readBody(r.Body, decodeQuery)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	// Parsing, catalog lookups and validation all happen here, so bad
	// queries still map to clean pre-stream statuses; only execution
	// failures can surface after the 200 is committed. The request
	// context scopes the query's producers: a client that disconnects
	// mid-stream cancels the morsel workers instead of paying for the
	// whole scan.
	qs, err := s.db.QueryStreamCtx(r.Context(), req.SQL)
	if err != nil {
		writeErr(w, queryStatus(err), err)
		return
	}
	defer qs.Close()
	// Surface cache hits so clients (and the bench harness) can tell a
	// replayed answer from a live scan.
	if qs.Cached() {
		w.Header().Set("X-Amnesia-Cache", "hit")
	} else {
		w.Header().Set("X-Amnesia-Cache", "miss")
	}
	streamResult(w, qs.Columns, qs.Ints, qs)
}

// healthReport is the /healthz body: worker-pool saturation, admission
// pressure, live resource-governor counters, durability health and
// cache occupancy in one scrape-friendly object.
type healthReport struct {
	Status string `json:"status"` // "ok" | "draining" | "degraded"
	// Degraded reports a latched durability failure: the instance
	// serves reads but refuses mutations (503) until the background
	// probe heals it; NextProbe (RFC 3339) is when that next runs.
	Degraded      bool                `json:"degraded"`
	DegradedCause string              `json:"degraded_cause,omitempty"`
	NextProbe     string              `json:"next_probe,omitempty"`
	Heals         uint64              `json:"heals,omitempty"`
	Pool          amnesiadb.PoolStats `json:"pool"`
	Admission     struct {
		MaxQueries int   `json:"max_queries"` // 0 = unlimited
		InFlight   int   `json:"in_flight"`
		Queued     int64 `json:"queued"`
		QueueDepth int64 `json:"queue_depth"`
	} `json:"admission"`
	// Resources is the governor's live ledger: queries with registered
	// quotas, pooled/working-set bytes currently charged against them,
	// the process peak, the configured high-water mark (0 = shedding
	// off) and how many queries pressure shedding has killed.
	Resources struct {
		ActiveQueries int    `json:"active_queries"`
		UsedBytes     int64  `json:"used_bytes"`
		PeakBytes     int64  `json:"peak_bytes"`
		HighWater     int64  `json:"high_water"`
		Sheds         uint64 `json:"sheds"`
	} `json:"resources"`
	Cache amnesiadb.CacheStats `json:"cache"`
}

// handleHealthz serves the liveness/saturation snapshot. It bypasses
// admission control — a saturated or draining server must still answer
// its health checks (draining reports as such with a 200, so
// orchestrators see a live process that is deliberately finishing up).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var h healthReport
	h.Status = "ok"
	if deg, cause := s.db.Degraded(); deg {
		h.Status = "degraded"
		h.Degraded = true
		if cause != nil {
			h.DegradedCause = cause.Error()
		}
	}
	if s.draining.Load() {
		h.Status = "draining"
	}
	if ds := s.db.DurabilityStatus(); ds.Durable {
		h.Heals = ds.Heals
		if !ds.NextProbe.IsZero() {
			h.NextProbe = ds.NextProbe.UTC().Format(time.RFC3339Nano)
		}
	}
	h.Pool = s.db.PoolStats()
	h.Admission.MaxQueries = cap(s.slots)
	h.Admission.InFlight = len(s.slots)
	h.Admission.Queued = s.queued.Load()
	h.Admission.QueueDepth = s.queueDepth
	gs := s.db.GovernorStats()
	h.Resources.ActiveQueries = gs.ActiveQueries
	h.Resources.UsedBytes = gs.UsedBytes
	h.Resources.PeakBytes = gs.PeakBytes
	h.Resources.HighWater = gs.HighWater
	h.Resources.Sheds = gs.Sheds
	h.Cache = s.db.CacheStats()
	writeJSON(w, http.StatusOK, h)
}

// chunkSource yields a result chunk by chunk; a nil chunk means
// drained. Pipelined reports whether producers may still be scanning.
// The facade's QueryStream satisfies it.
type chunkSource interface {
	NextChunk() (*sql.Chunk, error)
	Pipelined() bool
}

// streamResult serializes one query result incrementally: the envelope
// header rides in the first chunk's buffer, then each column-major
// chunk is encoded row by row into one pooled buffer and written in a
// single Write — no per-row allocation, and integer cells go from the
// chunk's int64 columns to their digits with no float in between.
//
// Only a pipelined stream is flushed, after each chunk, so response
// bytes leave while its producers are still scanning later morsels. A
// materialized answer (cache hit, aggregate, sort, join, LIMIT 0) has
// every row in hand before its first chunk, so it is never flushed:
// net/http sends one that fits its 2 KiB pre-chunking buffer with a
// Content-Length in the single write that ends the request, and a
// larger one as its 4 KiB connection buffer fills. Nothing is flushed
// after the closing `]}` either; ending the request sends it.
//
// A mid-stream failure cannot retract the committed 200; instead the
// JSON object is closed with a trailing "error" member, keeping the
// body well-formed and the failure detectable (a body that does not
// parse at all means the connection itself died mid-row).
func streamResult(w http.ResponseWriter, columns []string, ints []bool, src chunkSource) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if !src.Pipelined() {
		flusher = nil
	}
	bufp := bufPool.Get().(*[]byte)
	buf := appendQueryHeader((*bufp)[:0], columns, ints)
	first := true
	for {
		c, err := src.NextChunk()
		if err != nil {
			buf = append(buf, `],"error":`...)
			buf = append(appendJSONString(buf, err.Error()), '}')
			break
		}
		if c == nil {
			buf = append(buf, "]}"...)
			break
		}
		buf = appendChunkJSON(buf, c, first)
		first = false
		w.Write(buf)
		buf = buf[:0]
		if flusher != nil {
			flusher.Flush()
		}
	}
	w.Write(buf)
	putBuf(bufp, buf)
}

// insertRequest is the POST /insert body; decodeInsert parses it.
type insertRequest struct {
	Table string `json:"table"`
	// Create lists column names to create the table on first use.
	Create  []string           `json:"create,omitempty"`
	Columns map[string][]int64 `json:"columns"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	req, err := readBody(r.Body, decodeInsert)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if p, ok := s.db.Partitioned(req.Table); ok {
		// Partitioned tables take their single column's values; the
		// batch routes to the value-range shards.
		vals, ok := req.Columns[p.Column()]
		if !ok || len(req.Columns) != 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("partitioned table %q takes exactly its column %q", req.Table, p.Column()))
			return
		}
		if err := p.Insert(vals); err != nil {
			s.writeMutErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, p.Stats())
		return
	}
	t, ok := s.db.Table(req.Table)
	if !ok {
		if len(req.Create) == 0 {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown table %q (pass create to make it)", req.Table))
			return
		}
		if t, err = s.db.CreateTable(req.Table, req.Create...); err != nil {
			s.writeMutErr(w, http.StatusBadRequest, err)
			return
		}
	}
	if err := t.Insert(req.Columns); err != nil {
		s.writeMutErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, t.Stats())
}

// createPartitionedRequest is the POST /partitioned body.
type createPartitionedRequest struct {
	Table    string `json:"table"`
	Column   string `json:"column"`
	Domain   int64  `json:"domain"`
	Parts    int    `json:"parts"`
	Strategy string `json:"strategy"`
	Budget   int    `json:"budget"`
}

// handleCreatePartitioned creates a partitioned table, making the §4.4
// adaptive-partitioning catalog reachable over the wire.
func (s *Server) handleCreatePartitioned(w http.ResponseWriter, r *http.Request) {
	var req createPartitionedRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	p, err := s.db.CreatePartitionedTable(req.Table, req.Column, req.Domain, req.Parts, req.Strategy, req.Budget)
	if err != nil {
		s.writeMutErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, p.Stats())
}

type policyRequest struct {
	Table    string `json:"table"`
	Strategy string `json:"strategy"`
	Budget   int    `json:"budget"`
	Column   string `json:"column,omitempty"`
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	var req policyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	t, ok := s.db.Table(req.Table)
	if !ok {
		if _, part := s.db.Partitioned(req.Table); part {
			// Per-shard budgets are managed by the partition layer's
			// Adapt loop, not a table-level policy.
			writeErr(w, http.StatusBadRequest, fmt.Errorf("partitioned table %q manages per-shard budgets; table policies do not apply", req.Table))
			return
		}
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown table %q", req.Table))
		return
	}
	p := amnesiadb.Policy{Strategy: req.Strategy, Budget: req.Budget, Column: req.Column}
	if err := t.SetPolicy(p); err != nil {
		s.writeMutErr(w, http.StatusBadRequest, err)
		return
	}
	if err := t.EnforceBudget(); err != nil {
		s.writeMutErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, t.Stats())
}

// handleStats serves tuple counters for either catalog kind.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("table")
	if t, ok := s.db.Table(name); ok {
		writeJSON(w, http.StatusOK, t.Stats())
		return
	}
	if p, ok := s.db.Partitioned(name); ok {
		writeJSON(w, http.StatusOK, p.Stats())
		return
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf("unknown table %q", name))
}

// handleTables lists the relation catalog: every entry's name, its kind
// (table | partitioned) and, for partitioned tables, the shard count.
func (s *Server) handleTables(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.db.Relations())
}

// handlePrecision serves the §2.3 metrics for either catalog kind.
func (s *Server) handlePrecision(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("table")
	lo, err1 := strconv.ParseInt(q.Get("lo"), 10, 64)
	hi, err2 := strconv.ParseInt(q.Get("hi"), 10, 64)
	if err1 != nil || err2 != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("lo and hi must be integers"))
		return
	}
	var rf, mf int
	var pf float64
	var err error
	if t, ok := s.db.Table(name); ok {
		col := q.Get("col")
		if col == "" {
			col = t.Columns()[0]
		}
		rf, mf, pf, err = t.Precision(r.Context(), col, amnesiadb.Range(lo, hi))
	} else if p, ok := s.db.Partitioned(name); ok {
		if col := q.Get("col"); col != "" && col != p.Column() {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("partitioned table %q has no column %q", name, col))
			return
		}
		rf, mf, pf, err = p.Precision(r.Context(), lo, hi)
	} else {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown table %q", name))
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"returned": rf, "missed": mf, "precision": pf})
}
