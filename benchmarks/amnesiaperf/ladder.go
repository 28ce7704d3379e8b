package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"amnesiadb"
	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/engine"
	"amnesiadb/internal/engine/governor"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/server"
	"amnesiadb/internal/sql"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// A ladder times the same operation at every altitude of the system,
// from a bare slice up to a loopback HTTP request, with one serial
// caller. A layer's self cost is its rung minus the rung below. Every
// rung is called from here, through the layer's public functions:
// nothing inside the system is instrumented.
const (
	ladderPreds = 16 // fixed predicates per rung
	ladderReps  = 3  // a rung's time is the median repetition
)

// ladderRun carries what every ladder needs.
type ladderRun struct {
	m    map[string]metric
	tr   *tracer
	root int
	seed uint64
}

// rungTimed runs op once as a warm-up (pools, caches, lazily built
// state), then ladderReps times over n inputs, and returns the median
// repetition's time per input. op reports how long its measured part
// took, so a rung can keep preparation out of its time.
func (l *ladderRun) rungTimed(name string, n int, op func(i int) time.Duration) time.Duration {
	op(0)
	times := make([]float64, ladderReps)
	for rep := range times {
		start := time.Now()
		var sum time.Duration
		for i := 0; i < n; i++ {
			sum += op(i)
		}
		l.tr.record(name, start, time.Now(), l.root, int64(rep))
		times[rep] = float64(sum) / float64(n)
	}
	return time.Duration(median(times))
}

// rung is rungTimed for an op that is measured whole.
func (l *ladderRun) rung(name string, n int, op func(i int)) time.Duration {
	return l.rungTimed(name, n, func(i int) time.Duration {
		start := time.Now()
		op(i)
		return time.Since(start)
	})
}

func (l *ladderRun) put(name string, v float64, samples int) { set(l.m, name, v, samples) }

// fixture is the data a ladder runs on: the workload's main relation
// rebuilt twice with identical tuples and an identical active set, once
// as a bare table for the storage and engine rungs, once inside a
// database for the SQL, facade, server and HTTP rungs.
type fixture struct {
	shape ladderShape
	rows  int
	tbl   *table.Table
	db    *amnesiadb.DB
	preds [ladderPreds]expr.Range
}

// buildFixture loads rows tuples with the scan column uniform over the
// shape's domain and the second column the row number, forgets the
// given count through the workload's own strategy inside the database,
// and mirrors the surviving set onto the bare table.
func buildFixture(sh ladderShape, rows, forgotten int, seed uint64) (*fixture, error) {
	src := xrand.New(seed)
	scan := make([]int64, rows)
	other := make([]int64, rows)
	for i := range scan {
		scan[i] = src.Int63n(sh.domain)
		other[i] = int64(i)
	}
	f := &fixture{shape: sh, rows: rows}
	// No result cache: a ladder times execution, and its statements repeat.
	f.db = amnesiadb.Open(amnesiadb.Options{Seed: seed})
	t, err := f.db.CreateTable(sh.table, sh.cols...)
	if err != nil {
		return nil, err
	}
	f.tbl = table.New(sh.table, sh.cols...)
	both := func(rows map[string][]int64) error {
		if err := t.Insert(rows); err != nil {
			return err
		}
		_, err := f.tbl.AppendBatch(rows)
		return err
	}
	if err := insertBatched(both, sh.cols, [][]int64{scan, other}, 1<<20); err != nil {
		return nil, err
	}
	if forgotten > 0 {
		if err := t.SetPolicy(amnesiadb.Policy{Strategy: sh.strategy, Budget: rows - forgotten}); err != nil {
			return nil, err
		}
		if err := t.EnforceBudget(); err != nil {
			return nil, err
		}
		// Read the surviving row numbers back and forget the rest on
		// the bare table, so both hold the same active bitmap.
		qs, err := f.db.QueryStream(fmt.Sprintf("SELECT %s FROM %s", sh.cols[1], sh.table))
		if err != nil {
			return nil, err
		}
		active := bitvec.New(rows)
		for {
			chunk, err := qs.Next()
			if err != nil {
				return nil, err
			}
			if chunk == nil {
				break
			}
			for _, row := range chunk {
				active.Set(int(row[0]))
			}
		}
		for i := 0; i < rows; i++ {
			if !active.Test(i) {
				f.tbl.Forget(i)
			}
		}
		if f.tbl.ActiveCount() != rows-forgotten {
			return nil, fmt.Errorf("ladder fixture: %d active tuples mirrored, want %d", f.tbl.ActiveCount(), rows-forgotten)
		}
	}
	for i := range f.preds {
		lo := int64(i) * (sh.domain - sh.width) / ladderPreds
		f.preds[i] = expr.NewRange(lo, lo+sh.width)
	}
	return f, nil
}

func (f *fixture) close() { f.db.Close() }

// memWriter is an in-memory http.ResponseWriter for the server rung: the
// handler runs in full — admission, parse, execute, serialize, flush —
// with no socket underneath.
type memWriter struct {
	h      http.Header
	status int
	n      int64
}

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(s int)   { w.status = s }
func (w *memWriter) Flush()              {}
func (w *memWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// serveMem runs one request through the handler into a memWriter.
func serveMem(h http.Handler, path string, body []byte) (*memWriter, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := &memWriter{h: make(http.Header), status: http.StatusOK}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return w, fmt.Errorf("%s answered %d", path, w.status)
	}
	return w, nil
}

// rowStream is what the facade's and the SQL layer's result streams
// have in common.
type rowStream interface {
	Next() ([][]float64, error)
	Close()
}

// drain consumes a result stream and returns its row count.
func drain(st rowStream) (int, error) {
	defer st.Close()
	n := 0
	for {
		rows, err := st.Next()
		if err != nil {
			return n, err
		}
		if rows == nil {
			return n, nil
		}
		n += len(rows)
	}
}

// firstErr keeps the first error a ladder's rungs hit, so a rung's
// closure need not thread errors out of its timing loop.
type firstErr struct{ err error }

func (f *firstErr) check(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// tableCatalog exposes the fixture's bare table to the SQL layer the
// way the facade does: one relation, scans through the shared pool.
func tableCatalog(f *fixture, pool *sched.Pool) sql.Catalog {
	rel := sql.NewTableRelation(f.tbl)
	rel.SetScheduler(pool)
	return sql.CatalogFunc(func(name string) (sql.Relation, error) {
		if name != f.shape.table {
			return nil, fmt.Errorf("unknown table %q", name)
		}
		return rel, nil
	})
}

// readLadder times one range select at every altitude, in ns per stored
// row, and prints each layer's self cost.
func readLadder(ctx context.Context, l *ladderRun, f *fixture, log func(string, ...any)) error {
	sh := f.shape
	rows := float64(f.rows)
	col := f.tbl.MustColumn(sh.cols[0])
	second := f.tbl.MustColumn(sh.cols[1])
	active := f.tbl.Active()
	pool := sched.Default()
	var fail firstErr
	check := fail.check
	perRow := func(d time.Duration) float64 { return float64(d) / rows }

	// Roofline: a plain sum over the same values.
	vals := col.Values()
	var sink int64
	roof := l.rung("mem.sum", 4, func(int) {
		var s int64
		for _, v := range vals {
			s += v
		}
		sink += s
	})
	l.put("mem.sum_ns_per_row", perRow(roof), f.rows)

	sel := make([]int32, engine.BatchSize)
	val := make([]int64, engine.BatchSize)
	hits := 0
	scan := l.rung("column.scan", ladderPreds, func(i int) {
		p := f.preds[i]
		for start := 0; start < col.Len(); {
			n, next := col.ScanBatchRange(p.Lo, p.Hi, active, start, col.Len(), sel, val)
			hits += n
			start = next
		}
	})
	l.put("column.scan_ns_per_row", perRow(scan), f.rows)
	count := l.rung("column.count", ladderPreds, func(i int) {
		hits += col.CountRangeIn(f.preds[i].Lo, f.preds[i].Hi, active, 0, col.Len())
	})
	l.put("column.count_ns_per_row", perRow(count), f.rows)

	// Gather and filter work per row handed to them, not per stored row.
	positions := col.ScanRangeActive(f.preds[0].Lo, f.preds[0].Hi, active, nil)
	var out []int64
	gather := l.rung("column.gather", ladderPreds, func(int) { out = second.Gather(positions, out) })
	l.put("column.gather_ns_per_row", float64(gather)/float64(max(len(positions), 1)), len(positions))
	filter := l.rung("expr.filter", ladderPreds, func(i int) {
		for start := 0; start < len(vals); start += engine.BatchSize {
			n := copy(val, vals[start:])
			hits += expr.Filter(f.preds[i], sel, val, n)
		}
	})
	l.put("expr.filter_ns_per_row", perRow(filter), f.rows)

	silent := engine.NewSilent(f.tbl)
	silent.SetScheduler(pool)
	silent.SetParallelism(1)
	matched := 0
	serial := l.rung("engine.select_serial", ladderPreds, func(i int) {
		res, err := silent.Select(sh.cols[0], f.preds[i], engine.ScanActive)
		check(err)
		if err == nil {
			matched = res.Count()
		}
	})
	silent.SetParallelism(0)
	par := l.rung("engine.select_par", ladderPreds, func(i int) {
		_, err := silent.Select(sh.cols[0], f.preds[i], engine.ScanActive)
		check(err)
	})
	agg := l.rung("engine.aggregate", ladderPreds, func(i int) {
		_, err := silent.Aggregate(sh.cols[0], f.preds[i], engine.ScanActive)
		check(err)
	})
	touching := engine.New(f.tbl)
	touching.SetScheduler(pool)
	touch := l.rung("engine.select_touch", ladderPreds, func(i int) {
		_, err := touching.Select(sh.cols[0], f.preds[i], engine.ScanActive)
		check(err)
	})
	l.put("engine.select_serial_ns_per_row", perRow(serial), f.rows)
	l.put("engine.select_par_ns_per_row", perRow(par), f.rows)
	l.put("engine.par_speedup", float64(serial)/float64(max(par, 1)), 0)
	l.put("engine.aggregate_ns_per_row", perRow(agg), f.rows)
	l.put("engine.touch_ns_per_hit", float64(touch-par)/float64(max(matched, 1)), matched)

	// The chunk pipeline: time to the first chunk, time to drain, and
	// allocations per query.
	var ttfc []float64
	var m0, m1 runtime.MemStats
	streamOnce := func(i int) {
		start := time.Now()
		st, err := silent.SelectChunkStream(ctx, sh.cols[0], f.preds[i], engine.ScanActive)
		if err != nil {
			check(err)
			return
		}
		first := true
		for {
			c, ok, err := st.Next()
			if err != nil {
				check(err)
			}
			if !ok {
				break
			}
			if first {
				ttfc = append(ttfc, float64(time.Since(start))/float64(time.Microsecond))
				first = false
			}
			engine.RecycleChunk(c)
		}
	}
	streamOnce(0)
	ttfc = ttfc[:0]
	runtime.ReadMemStats(&m0)
	stream := l.rung("engine.stream", ladderPreds, streamOnce)
	runtime.ReadMemStats(&m1)
	l.put("engine.stream_ttfc_us", median(ttfc), len(ttfc))
	l.put("engine.stream_drain_ns_per_row", perRow(stream), f.rows)
	// rung ran one warm-up call plus ladderReps passes.
	l.put("engine.stream_allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/float64(ladderReps*ladderPreds+1), ladderReps*ladderPreds+1)

	stmts := make([]string, ladderPreds)
	bodies := make([][]byte, ladderPreds)
	for i, p := range f.preds {
		stmts[i] = fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s >= %d AND %s < %d",
			sh.cols[0], sh.cols[1], sh.table, sh.cols[0], p.Lo, sh.cols[0], p.Hi)
		bodies[i] = queryBody(stmts[i])
	}
	cat := tableCatalog(f, pool)
	sqlRun := l.rung("sql.run_select", ladderPreds, func(i int) {
		st, err := sql.RunStream(cat, stmts[i], sql.Opts{Ctx: ctx, Sched: pool})
		if err != nil {
			check(err)
			return
		}
		_, err = drain(st)
		check(err)
	})
	l.put("sql.run_select_ns_per_row", perRow(sqlRun), f.rows)
	facade := l.rung("facade.query", ladderPreds, func(i int) {
		qs, err := f.db.QueryStreamCtx(ctx, stmts[i])
		if err != nil {
			check(err)
			return
		}
		_, err = drain(qs)
		check(err)
	})
	l.put("facade.query_ns_per_row", perRow(facade), f.rows)

	handler := server.NewConfigured(f.db, server.Config{})
	var bytesOut int64
	srv := l.rung("server.query", ladderPreds, func(i int) {
		w, err := serveMem(handler, "/query", bodies[i])
		check(err)
		bytesOut = w.n
	})
	l.put("server.query_ns_per_row", perRow(srv), f.rows)
	l.put("server.json_bytes_per_row", float64(bytesOut)/float64(max(matched, 1)), matched)

	ts := httptest.NewServer(handler)
	defer ts.Close()
	cl := newClient(0, ts.URL, nil, 0)
	defer cl.close()
	var firstByte []float64
	httpRung := l.rung("http.query", ladderPreds, func(i int) {
		sent := time.Now()
		first, _, _, ok := cl.post(&op{path: "/query", body: bodies[i]})
		if !ok {
			check(fmt.Errorf("ladder: %s failed over HTTP", stmts[i]))
		}
		firstByte = append(firstByte, float64(first.Sub(sent))/float64(time.Microsecond))
	})
	l.put("http.query_ns_per_row", perRow(httpRung), f.rows)
	l.put("http.ttfb_us", median(firstByte), len(firstByte))
	if fail.err != nil {
		return fmt.Errorf("read ladder: %w", fail.err)
	}
	_ = sink + int64(hits)

	// The chain each rung of which contains the one before it.
	chain := []struct {
		name string
		d    time.Duration
	}{
		{"column.scan", scan}, {"engine.select_serial", serial}, {"engine.stream (parallel pipeline)", stream},
		{"sql.run_select", sqlRun}, {"facade.query", facade}, {"server.query", srv}, {"http.query", httpRung},
	}
	log("read ladder on %s (%d stored rows, %d matching, ns per stored row; roofline mem.sum %.3f)", sh.table, f.rows, matched, perRow(roof))
	var sum float64
	for i, c := range chain {
		self := perRow(c.d)
		if i > 0 {
			self -= perRow(chain[i-1].d)
		}
		sum += self
		log("  %-36s rung %8.3f   self %+8.3f", c.name, perRow(c.d), self)
	}
	log("  self costs sum to %.3f = %.1f%% of http.query_ns_per_row", sum, 100*sum/perRow(httpRung))
	return nil
}

// fixedLadder times one narrow top-k statement — the hot_small kind —
// at every altitude, in µs per query: what a query costs before it
// touches a row.
func fixedLadder(ctx context.Context, l *ladderRun, f *fixture) error {
	sh := f.shape
	pool := sched.Default()
	var fail firstErr
	check := fail.check
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	plain := make([]string, ladderPreds)
	topk := make([]string, ladderPreds)
	bodies := make([][]byte, ladderPreds)
	for i := range plain {
		lo := int64(i) * (sh.domain - sh.pointW) / ladderPreds
		plain[i] = fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s >= %d AND %s < %d",
			sh.cols[0], sh.cols[1], sh.table, sh.cols[0], lo, sh.cols[0], lo+sh.pointW)
		topk[i] = plain[i] + fmt.Sprintf(" ORDER BY %s LIMIT 10", sh.orderCol)
		bodies[i] = queryBody(topk[i])
	}

	parse := l.rung("sql.parse", ladderPreds, func(i int) {
		_, err := sql.Parse(topk[i])
		check(err)
	})
	l.put("sql.parse_us", us(parse), ladderPreds)
	plans := sql.NewPlanCache(256)
	planHit := l.rung("sql.plan_cache_hit", ladderPreds, func(i int) {
		_, err := plans.Parse(sql.NormalizeSQL(topk[i]))
		check(err)
	})
	l.put("sql.plan_cache_hit_us", us(planHit), ladderPreds)
	results := sql.NewResultCache(256)
	for i := range topk {
		results.Put(topk[i], "sig", &sql.CachedResult{Columns: sh.cols, Ints: []bool{true, true}, Rows: make([][]float64, 10)})
	}
	resultHit := l.rung("sql.result_cache_hit", ladderPreds, func(i int) {
		if _, ok := results.Get(topk[i], "sig"); !ok {
			check(fmt.Errorf("result cache lost %q", topk[i]))
		}
	})
	l.put("sql.result_cache_hit_us", us(resultHit), ladderPreds)

	cat := tableCatalog(f, pool)
	runSQL := func(stmts []string) func(int) {
		parsed := make([]*sql.Query, len(stmts))
		for i, s := range stmts {
			q, err := sql.Parse(s)
			check(err)
			parsed[i] = q
		}
		return func(i int) {
			st, err := sql.ExecStream(cat, parsed[i], sql.Opts{Ctx: ctx, Sched: pool})
			if err != nil {
				check(err)
				return
			}
			_, err = drain(st)
			check(err)
		}
	}
	if fail.err != nil {
		return fmt.Errorf("fixed-cost ladder: %w", fail.err)
	}
	unordered := l.rung("sql.point_unordered", ladderPreds, runSQL(plain))
	point := l.rung("sql.point", ladderPreds, runSQL(topk))
	l.put("sql.orderby_topk_us", us(point-unordered), ladderPreds)
	l.put("sql.point_us", us(point), ladderPreds)
	facade := l.rung("facade.point", ladderPreds, func(i int) {
		qs, err := f.db.QueryStreamCtx(ctx, topk[i])
		if err != nil {
			check(err)
			return
		}
		_, err = drain(qs)
		check(err)
	})
	l.put("facade.point_us", us(facade), ladderPreds)
	handler := server.NewConfigured(f.db, server.Config{})
	srv := l.rung("server.point", ladderPreds, func(i int) {
		_, err := serveMem(handler, "/query", bodies[i])
		check(err)
	})
	l.put("server.point_us", us(srv), ladderPreds)
	ts := httptest.NewServer(handler)
	defer ts.Close()
	cl := newClient(0, ts.URL, nil, 0)
	defer cl.close()
	overHTTP := l.rung("http.point", ladderPreds, func(i int) {
		if _, _, _, ok := cl.post(&op{path: "/query", body: bodies[i]}); !ok {
			check(fmt.Errorf("ladder: %s failed over HTTP", topk[i]))
		}
	})
	l.put("http.point_us", us(overHTTP), ladderPreds)

	// The scheduler's and the governor's own fixed costs.
	attach := l.rung("sched.attach", 256, func(int) {
		pool.Attach(1, true, func() sched.Status { return sched.Done }).Wait()
	})
	l.put("sched.attach_us", us(attach), 256)
	gov := governor.New(0)
	quota := gov.NewQuota(0)
	acquire := l.rung("governor.acquire", 4096, func(int) {
		check(quota.Acquire(64 << 10))
		quota.Release(64 << 10)
	})
	gov.Remove(quota)
	l.put("governor.acquire_ns", float64(acquire), 4096)
	if fail.err != nil {
		return fmt.Errorf("fixed-cost ladder: %w", fail.err)
	}
	return nil
}

// ladders runs every ladder on the workload's shape and adds their
// metrics to the result. The workload's own database is closed first:
// the ladders build their fixtures from the shape, at the size and
// forgotten share the live relation ended the run with.
func ladders(ctx context.Context, res *runResult, r *runner, tr *tracer) error {
	sh := r.plan.shape
	t, ok := r.db.Table(sh.table)
	if !ok {
		return fmt.Errorf("ladder: table %q missing", sh.table)
	}
	st := t.Stats()
	r.close()
	runtime.GC()

	start := time.Now()
	l := &ladderRun{m: res.Metrics, tr: tr, seed: r.cfg.seed}
	l.root = tr.record("ladders", start, start, -1, 0)
	log := func(format string, args ...any) { fmt.Fprintf(r.cfg.log, format+"\n", args...) }

	f, err := buildFixture(sh, st.Tuples, st.Forgotten, r.cfg.seed+1)
	if err != nil {
		return err
	}
	log("ladder fixture built in %.1fs", time.Since(start).Seconds())
	lap := time.Now()
	if err := readLadder(ctx, l, f, log); err != nil {
		f.close()
		return err
	}
	log("read ladder took %.1fs", time.Since(lap).Seconds())
	lap = time.Now()
	err = fixedLadder(ctx, l, f)
	f.close()
	if err != nil {
		return err
	}
	log("fixed-cost ladder took %.1fs", time.Since(lap).Seconds())
	lap = time.Now()
	f = nil
	runtime.GC()
	if err := writeLadder(l, r, sh); err != nil {
		return err
	}
	log("write ladder took %.1fs", time.Since(lap).Seconds())
	lap = time.Now()
	if err := restartLadder(l, r, sh); err != nil {
		return err
	}
	log("restart ladder took %.1fs; all ladders %.1fs", time.Since(lap).Seconds(), time.Since(start).Seconds())
	return nil
}
