package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"amnesiadb/internal/xrand"
)

// opClass is a statement class; percentiles are never taken across
// classes.
type opClass uint8

const (
	clsSelect opClass = iota // streaming range SELECT
	clsAgg                   // single-row aggregate
	clsPoint                 // narrow top-k statement
	clsInsert                // acked POST /insert batch
	clsAux                   // maintenance call made through the library (Vacuum, Adapt); never a latency sample
	numClasses
)

var classNames = [numClasses]string{"select", "agg", "point", "insert", "aux"}

// op is one pre-built client operation: the request body is encoded
// once, before any timed phase.
type op struct {
	class opClass
	path  string // "/query" or "/insert"
	body  []byte
	// stmt indexes the workload's statement table for read-only
	// statements whose response must be byte-identical every time it
	// runs; -1 for operations whose answer legitimately changes.
	stmt int
	// call, for clsAux, is the library call to make instead of a request.
	call func() error
}

// sample is one client operation of a timed phase. Offsets are from the
// phase start.
type sample struct {
	class  opClass
	failed bool
	due    time.Duration // when it was due (open loop) or sent (closed loop)
	sent   time.Duration
	first  time.Duration // first body byte
	done   time.Duration // last body byte
}

// fingerprint identifies a response body cheaply enough to compute on
// every response of a timed phase: length and CRC-32.
type fingerprint struct {
	n   int64
	crc uint32
	set bool
}

// client is one load-generating goroutine's state: one keep-alive
// connection, one fixed drain buffer, no retries.
type client struct {
	id   int
	hc   *http.Client
	base string
	buf  []byte
	ops  []op
	pos  int // cursor into ops; survives across phases so a warm-up does not replay the timed phase's statements

	samples []sample
	// seen holds the first fingerprint observed per read-only statement;
	// mismatches counts later responses that differed from it.
	seen       []fingerprint
	mismatches int
	opSeq      int64
	tr         *tracer
}

func newClient(id int, base string, ops []op, statements int) *client {
	return &client{
		id: id,
		// One connection per client, kept alive: connection set-up is
		// not part of any metric.
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		base: base,
		buf:  make([]byte, 64<<10),
		ops:  ops,
		seen: make([]fingerprint, statements),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errMember is what a streamed response that failed after its 200 was
// committed ends with.
var errMember = []byte(`"error"`)

// errScanner finds errMember in a body delivered in arbitrary pieces by
// carrying the last len(errMember)-1 bytes across pieces.
type errScanner struct {
	carry [2 * len(`"error"`)]byte
	n     int
	found bool
}

func (s *errScanner) feed(b []byte) {
	if s.found {
		return
	}
	const k = len(`"error"`) - 1
	s.n += copy(s.carry[s.n:], b[:min(len(b), k)])
	if bytes.Contains(s.carry[:s.n], errMember) || bytes.Contains(b, errMember) {
		s.found = true
		return
	}
	if len(b) >= k {
		s.n = copy(s.carry[:], b[len(b)-k:])
	} else if s.n > k {
		s.n = copy(s.carry[:], s.carry[s.n-k:s.n])
	}
}

// post sends one request and drains the response into the client's
// fixed buffer. It returns the instants of the first and last body byte
// and whether the operation succeeded: a transport error, a non-200, or
// a body carrying the trailing "error" member is a failure. There are
// no retries.
func (c *client) post(o *op) (first, last time.Time, fp fingerprint, ok bool) {
	req, err := http.NewRequest(http.MethodPost, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return first, time.Now(), fp, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return first, time.Now(), fp, false
	}
	defer resp.Body.Close()
	var scan errScanner
	for {
		n, err := resp.Body.Read(c.buf)
		if n > 0 {
			if first.IsZero() {
				first = time.Now()
			}
			fp.n += int64(n)
			fp.crc = crc32.Update(fp.crc, crc32.IEEETable, c.buf[:n])
			if o.path == "/query" {
				scan.feed(c.buf[:n])
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return first, time.Now(), fp, false
		}
	}
	last = time.Now()
	if first.IsZero() {
		first = last
	}
	fp.set = true
	return first, last, fp, resp.StatusCode == http.StatusOK && !scan.found
}

// exec runs one operation due at the given instant and, when recording,
// appends its sample.
func (c *client) exec(o *op, phaseStart, due time.Time, record bool) {
	if o.class == clsAux {
		start := time.Now()
		err := o.call()
		if record {
			c.samples = append(c.samples, sample{class: clsAux, failed: err != nil,
				due: due.Sub(phaseStart), sent: start.Sub(phaseStart), done: time.Since(phaseStart)})
		}
		return
	}
	sent := time.Now()
	first, last, fp, ok := c.post(o)
	if ok && o.stmt >= 0 {
		if prev := c.seen[o.stmt]; !prev.set {
			c.seen[o.stmt] = fp
		} else if prev != fp {
			c.mismatches++
			ok = false
		}
	}
	if !record {
		return
	}
	c.samples = append(c.samples, sample{class: o.class, failed: !ok,
		due: due.Sub(phaseStart), sent: sent.Sub(phaseStart), first: first.Sub(phaseStart), done: last.Sub(phaseStart)})
	if c.tr != nil {
		c.opSeq++
		id := int64(c.id)<<40 | c.opSeq
		name := "http." + classNames[o.class]
		root := c.tr.record(name, due, last, -1, id)
		if sent.After(due) {
			c.tr.record("loadgen.late", due, sent, root, id)
		}
		c.tr.record(name+".ttfb", sent, first, root, id)
		c.tr.record(name+".drain", first, last, root, id)
	}
}

// runClosed drives the client as a closed loop for the given duration:
// the next operation is sent only when the previous one has completed.
// order lists the operations to cycle through as indices into c.ops;
// nil means c.ops itself, in order.
func (c *client) runClosed(phaseStart time.Time, d time.Duration, order []int32, record bool) {
	end := phaseStart.Add(d)
	for now := time.Now(); now.Before(end); now = time.Now() {
		o := &c.ops[c.pos%len(c.ops)]
		if order != nil {
			o = &c.ops[order[c.pos%len(order)]]
		}
		c.pos++
		c.exec(o, phaseStart, now, record)
	}
}

// ttEntry is one line of an open-loop timetable: operation op of the
// connection's list is due at offset due from the phase start.
type ttEntry struct {
	due time.Duration
	op  int
}

// runOpen drives the client from a timetable: every operation is sent
// at its due time, or as soon after as the connection is free, and its
// latency is counted from the due time either way.
func (c *client) runOpen(phaseStart time.Time, tt []ttEntry, record bool) {
	for _, e := range tt {
		due := phaseStart.Add(e.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		c.exec(&c.ops[e.op%len(c.ops)], phaseStart, due, record)
	}
}

// stream is one arrival process of a timetable: ops per second, taken
// round-robin from the operation indices in from. Arrivals are Poisson
// unless periodic is set, in which case they are evenly spaced from a
// seeded offset — for a stream so slow that the count of its arrivals
// in a phase would otherwise differ noticeably between seeds.
type stream struct {
	perSec   float64
	from     []int
	periodic bool
}

// timetable merges the streams' seeded arrivals over [0, d)
// into one due-time-ordered list. The same seed gives the same
// timetable, so the offered load is identical however fast the system
// under test answers.
func timetable(seed uint64, d time.Duration, streams []stream) []ttEntry {
	src := xrand.New(seed)
	var tt []ttEntry
	for _, s := range streams {
		if s.perSec <= 0 || len(s.from) == 0 {
			continue
		}
		rnd := src.Split()
		k := 0
		t := 0.0
		if s.periodic {
			t = (rnd.Float64() - 1) / s.perSec
		}
		for ; ; k++ {
			if s.periodic {
				t += 1 / s.perSec
			} else {
				// Exponential gap with mean 1/rate; 1-u keeps the log finite.
				t += -math.Log(1-rnd.Float64()) / s.perSec
			}
			due := time.Duration(t * float64(time.Second))
			if due >= d {
				break
			}
			tt = append(tt, ttEntry{due: due, op: s.from[k%len(s.from)]})
		}
	}
	sort.SliceStable(tt, func(i, j int) bool { return tt[i].due < tt[j].due })
	return tt
}

// dilated is a timetable in reference time: it is drawn at the streams'
// frozen rates for d/slowdown seconds and stretched to d, so a machine
// running 20 % slow is offered 20 % fewer requests a second and its
// connections stay as busy as they would be at reference speed.
// Offered at wall-clock rates, the same requests would find a slowed
// writer holding its lock for a larger share of every second, and the
// readers' tail would grow about twice as fast as the machine slowed,
// which no division by the slowdown undoes.
func dilated(seed uint64, d time.Duration, streams []stream, slowdown float64) []ttEntry {
	tt := timetable(seed, time.Duration(float64(d)/slowdown), streams)
	for i := range tt {
		tt[i].due = time.Duration(float64(tt[i].due) * slowdown)
	}
	return tt
}

// queryBody pre-encodes a POST /query body. The SQL text contains no
// characters JSON must escape.
func queryBody(sql string) []byte {
	return []byte(`{"sql":"` + sql + `"}`)
}

// insertBody pre-encodes a POST /insert body for the given columns, in
// the given order.
func insertBody(table string, names []string, cols [][]int64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"table":%q,"columns":{`, table)
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:[", name)
		for j, v := range cols[i] {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte(']')
	}
	b.WriteString("}}")
	return b.Bytes()
}
