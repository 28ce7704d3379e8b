package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"amnesiadb"
	"amnesiadb/internal/server"
)

// A run's set-up is a phase of its own: the workload is built from
// scratch again and again until setupMinTotal has been spent (and at
// least setupMinReps times), with the speed probe running alongside,
// and setup_s is the median build at reference speed. The last instance
// is the one measured.
const (
	setupMinReps  = 5
	setupMinTotal = 3 * time.Second
)

// warmup is the discarded phase before the timed one: caches fill, pools
// grow, the plan LRU and the connection settle.
const warmup = 2 * time.Second

// saturateShare is the part of an open-loop workload's timed phase spent
// on the reader-saturation phase that yields its ops_per_s.
const saturateShare = 0.3

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runConfig is one invocation of one workload.
type runConfig struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	tmpRoot string // durable directories live under it
	outDir  string // traces are written here
	log     io.Writer
}

// runResult is what a run reports.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted_ops"`
	Failed    int               `json:"failed_ops"`
	Checks    int               `json:"verify_checks"`
	Metrics   map[string]metric `json:"metrics"`
	// TailEligible says whether op_p95_ms resolves a service-time tail
	// (see tailEligible); it is informational.
	TailEligible bool `json:"tail_eligible"`
	// Raw holds the timing metrics as the clock read them, before they
	// were brought to reference speed; SetupSpeed and Speed are what the
	// probe saw during the set-ups and the timed phase.
	Raw        map[string]float64 `json:"raw,omitempty"`
	SetupSpeed speed              `json:"setup_speed"`
	Speed      speed              `json:"speed"`
	Env        envRecord          `json:"env"`
}

// runner holds one live instance of a workload.
type runner struct {
	cfg     runConfig
	plan    *plan
	db      *amnesiadb.DB
	dir     string
	ts      *httptest.Server
	clients []*client
	phaseNo uint64
	probe   *speedProbe
	// slowdown is what the probe measured most recently (the set-ups,
	// then each phase in turn); an open loop's next timetable is
	// stretched by it.
	slowdown float64
}

// phaseStats is what one timed phase measured.
type phaseStats struct {
	d           time.Duration
	samples     []sample
	cpu         time.Duration
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPauseNs   uint64
	poolRunning float64 // mean of sampled PoolStats.Running; traced phases only
	steal       float64
	cache       amnesiadb.CacheStats // deltas over the phase
	govPeak     int64
	speed       speed // what the probe saw during the phase
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStat returns the host's steal and total jiffies from /proc/stat.
func procStat() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// open opens a database for the plan: in memory, or durable in a fresh
// directory under the temporary root.
func (r *runner) open() (*amnesiadb.DB, string, error) {
	if !r.plan.durable {
		return amnesiadb.Open(r.plan.opts), "", nil
	}
	dir, err := os.MkdirTemp(r.cfg.tmpRoot, r.cfg.w.name+"-")
	if err != nil {
		return nil, "", err
	}
	db, err := amnesiadb.OpenDir(dir, r.plan.opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return db, dir, nil
}

// setUp builds the workload's database repeatedly and keeps the last
// instance; it returns each build's duration and the speed the probe
// saw meanwhile.
func (r *runner) setUp() ([]float64, speed, error) {
	var times []float64
	var total time.Duration
	probing := r.probe.start()
	for rep := 1; ; rep++ {
		last := rep >= setupMinReps && (total >= setupMinTotal || r.cfg.smoke)
		// The collector runs between builds, not during one: a cycle that
		// starts mid-build marks the load generator's own statement tables
		// and charges the build for it, in some runs and not in others.
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		start := time.Now()
		db, dir, err := r.open()
		if err == nil {
			if err = r.plan.setup(db); err != nil {
				db.Close()
				os.RemoveAll(dir)
			}
		}
		d := time.Since(start)
		debug.SetGCPercent(gcPercent)
		if err != nil {
			probing.finish()
			return nil, speed{}, fmt.Errorf("set-up: %w", err)
		}
		total += d
		times = append(times, d.Seconds())
		if last {
			r.db, r.dir = db, dir
			break
		}
		db.Close()
		os.RemoveAll(dir)
	}
	sp := probing.finish()
	if r.plan.release != nil {
		r.plan.release()
	}
	r.plan.live.db = r.db
	return times, sp, nil
}

// serve stands the HTTP layer up over the current database and
// connects the clients.
func (r *runner) serve() {
	r.ts = httptest.NewServer(server.NewConfigured(r.db, server.Config{}))
	for _, c := range r.clients {
		c.base = r.ts.URL
	}
	if r.clients == nil {
		for i, ops := range r.plan.clientOps {
			r.clients = append(r.clients, newClient(i, r.ts.URL, ops, r.plan.statements))
		}
	}
}

func (r *runner) stopServing() {
	for _, c := range r.clients {
		c.close()
	}
	if r.ts != nil {
		r.ts.Close()
		r.ts = nil
	}
}

func (r *runner) close() {
	r.probe.close()
	r.stopServing()
	if r.db != nil {
		r.db.Close()
		r.db = nil
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// phaseMode says how a phase drives the connections.
type phaseMode int

const (
	// asPlanned: closed loops cycle their operations, open loops follow
	// their timetables.
	asPlanned phaseMode = iota
	// idleWriters leaves the writer connections of an open loop silent.
	idleWriters
	// saturateReaders turns the reader connections of an open loop into
	// closed loops over the same statement mix while the writers keep
	// their timetable: what the readers complete per second beside a
	// fixed ingest is the workload's throughput.
	saturateReaders
)

// phase drives every client for d. With record false it is a warm-up:
// nothing is kept.
func (r *runner) phase(d time.Duration, record bool, tr *tracer, mode phaseMode) phaseStats {
	r.phaseNo++
	for _, c := range r.clients {
		c.samples = c.samples[:0]
		c.tr = tr
	}
	// An open loop's clock ticks in reference time, at the speed the
	// probe measured during the phase before.
	var tables [][]ttEntry
	for i := range r.plan.streams {
		tables = append(tables, dilated(r.cfg.seed^(r.phaseNo<<32)^uint64(i+1), d, r.plan.streams[i], r.slowdown))
	}
	st := phaseStats{d: d}
	if record {
		// Every timed phase starts from a collected heap, so one phase's
		// garbage is not another's GC cycle.
		runtime.GC()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := r.db.CacheStats()
	steal0, total0 := procStat()
	cpu0 := cpuTime()

	stop := make(chan struct{})
	var poll sync.WaitGroup
	start := time.Now()
	probing := r.probe.start()
	if tr != nil {
		poll.Add(1)
		go func() {
			defer poll.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			var sum, n float64
			for {
				select {
				case <-stop:
					if n > 0 {
						st.poolRunning = sum / n
					}
					return
				case <-tick.C:
					sum += float64(r.db.PoolStats().Running)
					n++
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for i, c := range r.clients {
		writer := i < len(r.plan.writer) && r.plan.writer[i]
		if mode == idleWriters && writer {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch {
			case tables == nil || (mode == saturateReaders && !writer):
				c.runClosed(start, d, r.plan.order[i], record)
			default:
				c.runOpen(start, tables[i], record)
			}
		}()
	}
	wg.Wait()
	close(stop)
	poll.Wait()
	st.speed = probing.finish()
	r.slowdown = st.speed.Slowdown

	st.cpu = cpuTime() - cpu0
	steal1, total1 := procStat()
	if total1 > total0 {
		st.steal = (steal1 - steal0) / (total1 - total0)
	}
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.gcCycles = m1.NumGC - m0.NumGC
	st.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	c1 := r.db.CacheStats()
	st.cache = amnesiadb.CacheStats{
		PlanHits: c1.PlanHits - c0.PlanHits, PlanMisses: c1.PlanMisses - c0.PlanMisses,
		ResultHits: c1.ResultHits - c0.ResultHits, ResultMisses: c1.ResultMisses - c0.ResultMisses,
	}
	st.govPeak = r.db.GovernorStats().PeakBytes
	if record {
		for _, c := range r.clients {
			st.samples = append(st.samples, c.samples...)
		}
	}
	return st
}

// latencies are one class's successful samples of a phase, aligned by
// index: latency from the due time, time to the first body byte from
// the due time (both in ms), and completion offset.
type latencies struct {
	total, ttfb []float64
	done        []time.Duration
}

func classLatencies(samples []sample, cls opClass) latencies {
	var l latencies
	for _, s := range samples {
		if s.class == cls && !s.failed {
			l.total = append(l.total, ms(dueLatency(s.due, s.done)))
			l.ttfb = append(l.ttfb, ms(dueLatency(s.due, s.first)))
			l.done = append(l.done, s.done)
		}
	}
	return l
}

// pct is percentile over an unsorted slice.
func pct(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// httpOps counts a phase's requests (maintenance calls are not
// requests) and returns their completion offsets.
func httpOps(samples []sample) (done []time.Duration) {
	for _, s := range samples {
		if s.class != clsAux && !s.failed {
			done = append(done, s.done)
		}
	}
	return done
}

// precisionPF is the mean PF(Q) over the plan's fixed /precision probes.
func (r *runner) precisionPF() (float64, error) {
	var sum float64
	for _, pr := range r.plan.precision {
		q := url.Values{"table": {pr.table}, "col": {pr.col},
			"lo": {strconv.FormatInt(pr.lo, 10)}, "hi": {strconv.FormatInt(pr.hi, 10)}}
		resp, err := http.Get(r.ts.URL + "/precision?" + q.Encode())
		if err != nil {
			return 0, err
		}
		var out struct {
			Precision float64 `json:"precision"`
		}
		err = decodeJSON(resp, &out)
		if err != nil {
			return 0, fmt.Errorf("/precision %v: %w", pr, err)
		}
		sum += out.Precision
	}
	return sum / float64(len(r.plan.precision)), nil
}

// reopen closes a durable database and opens its directory again,
// checking that every relation's COUNT and SUM came back.
func (r *runner) reopen() error {
	before, err := digest(r.db, r.plan.tables)
	if err != nil {
		return err
	}
	r.stopServing()
	r.db.Close()
	db, err := amnesiadb.OpenDir(r.dir, r.plan.opts)
	if err != nil {
		r.db = nil
		return fmt.Errorf("reopen: %w", err)
	}
	r.db, r.plan.live.db = db, db
	after, err := digest(db, r.plan.tables)
	if err != nil {
		return err
	}
	for name, want := range before {
		if got := after[name]; got != want {
			return fmt.Errorf("relation %q after reopen: count %d sum %d, before close: count %d sum %d",
				name, got.count, got.sum, want.count, want.sum)
		}
	}
	r.serve()
	return nil
}

// run executes one workload once and reports its metrics: end-to-end
// ones for an untraced run, per-layer ones for a traced run.
func run(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: make(map[string]metric), Env: environment(cfg.tmpRoot)}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	probe, err := newSpeedProbe()
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, plan: cfg.w.plan(cfg.seed, cfg.smoke), probe: probe}
	defer r.close()

	setups, setupSpeed, err := r.setUp()
	if err != nil {
		return nil, err
	}
	res.SetupSpeed = setupSpeed
	r.slowdown = setupSpeed.Slowdown
	r.serve()
	timed := time.Duration(cfg.seconds * float64(time.Second))
	warm := warmup
	if cfg.smoke {
		warm = timed / 4
	}
	r.phase(warm, false, nil, asPlanned)

	var untraced, saturated, traced, readersOnly phaseStats
	var tr *tracer
	switch {
	case cfg.trace:
		// A traced run splits its time: an untraced half for the
		// baseline, a traced half for spans and counters, so that their
		// difference is the tracing overhead.
		tr = newTracer()
		untraced = r.phase(timed/2, true, nil, asPlanned)
		traced = r.phase(timed/2, true, tr, asPlanned)
		if r.plan.writer != nil {
			readersOnly = r.phase(timed/4, true, nil, idleWriters)
		}
	case r.plan.streams != nil:
		// An open loop's completions echo its timetable, so its rate
		// comes from a phase of its own.
		sat := time.Duration(saturateShare * float64(timed))
		untraced = r.phase(timed-sat, true, nil, asPlanned)
		saturated = r.phase(sat, true, nil, saturateReaders)
	default:
		untraced = r.phase(timed, true, nil, asPlanned)
		saturated = untraced
	}
	res.Speed = untraced.speed
	attempted := []phaseStats{untraced, traced, readersOnly}
	if r.plan.streams != nil {
		attempted = append(attempted, saturated)
	}
	for _, ph := range attempted {
		for _, s := range ph.samples {
			res.Attempted++
			if s.failed {
				res.Failed++
			}
		}
	}

	for cls := clsSelect; cls < clsAux; cls++ {
		if l := classLatencies(untraced.samples, cls); len(l.total) > 0 {
			fmt.Fprintf(cfg.log, "class %-6s n=%-7d p50=%.3fms p95=%.3fms max=%.3fms ttfb_p50=%.3fms\n", classNames[cls],
				len(l.total), median(l.total), pct(l.total, 0.95), pct(l.total, 1), median(l.ttfb))
		}
	}
	if !cfg.trace {
		// The timings are worked out now and the samples dropped, so that
		// heap_live_mb below weighs the system and not the load
		// generator's notes on it.
		endToEnd(res, r.plan, untraced, saturated, setups)
		fmt.Fprintf(cfg.log, "speed during set-up: %v\nspeed during the timed phase: %v\n", res.SetupSpeed, res.Speed)
		untraced.samples, saturated.samples = nil, nil
		for _, c := range r.clients {
			c.samples = nil
		}
	}

	if r.plan.coda != nil {
		if err := r.plan.coda(r.db); err != nil {
			return nil, fmt.Errorf("coda: %w", err)
		}
	}
	// Live heap is read once the coda has fixed how much forgotten data
	// the relations still store, after two collections: the first empties
	// the sync.Pools into their victim caches, the second frees those.
	var mem runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&mem)
	pf, err := r.precisionPF()
	if err != nil {
		return nil, err
	}
	v := &verifier{base: r.ts.URL, hc: http.DefaultClient, db: r.db, seen: make([]fingerprint, r.plan.statements)}
	for _, c := range r.clients {
		for s, fp := range c.seen {
			if fp.set {
				v.seen[s] = fp
			}
		}
	}
	verr := r.plan.verify(v)
	if verr == nil && r.plan.durable {
		verr = r.reopen()
	}
	res.Checks = v.checks
	res.Correct = verr == nil && res.Failed == 0
	if verr != nil {
		fmt.Fprintf(cfg.log, "verify FAILED: %v\n", verr)
	}
	if !cfg.trace {
		set(res.Metrics, "heap_live_mb", float64(mem.HeapAlloc)/1e6, 1)
		set(res.Metrics, "precision_pf", pf, len(r.plan.precision))
		return res, complete(res.Metrics, endToEndMetrics)
	}
	crossCutting(res, r.plan, untraced, traced, readersOnly)
	if r.db != nil {
		if err := ladders(ctx, res, r, tr); err != nil {
			return nil, err
		}
	}
	if err := complete(res.Metrics, perLayerMetrics); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, cfg.w.name+".trace.json")
	if err := tr.write(path, map[string]any{"workload": cfg.w.name, "seed": cfg.seed, "env": res.Env}); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "trace: %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// complete checks that a run reports exactly the declared metrics and
// that each is a number: an empty class or a zero denominator is a
// broken run, not a value to report.
func complete(metrics map[string]metric, declared []metricDef) error {
	if len(metrics) != len(declared) {
		return fmt.Errorf("%d metrics reported, %d declared", len(metrics), len(declared))
	}
	for _, d := range declared {
		m, ok := metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite (%v over %d samples)", d.Name, m.Value, m.Samples)
		}
	}
	return nil
}

// endToEnd fills the six timing metrics of the end-to-end list from an
// untraced phase; heap_live_mb and precision_pf are read later.
// Every timing is brought to reference speed with the slowdown the
// probe measured during the same phase (see probe.go); the clock's own
// readings are kept in res.Raw. Latency percentiles and CPU cost are
// over the whole phase, the rate is the median of rateWindows windows.
// rated is the phase the rate comes from: the timed phase itself for a
// closed loop, the reader-saturation phase for an open one.
func endToEnd(res *runResult, p *plan, ph, rated phaseStats, setups []float64) {
	done := httpOps(ph.samples)
	prim := classLatencies(ph.samples, p.primary)
	agg := classLatencies(ph.samples, clsAgg)
	ratedDone := httpOps(rated.samples)
	res.Raw = make(map[string]float64)
	timing := func(name string, raw, slowdown float64, samples int) {
		res.Raw[name] = raw
		set(res.Metrics, name, raw/slowdown, samples)
	}
	timing("setup_s", median(setups), res.SetupSpeed.Slowdown, len(setups))
	// A rate at reference speed is higher than the one the clock saw on
	// a slowed machine.
	timing("ops_per_s", windowRate(ratedDone, rated.d), 1/rated.speed.Slowdown, len(ratedDone))
	timing("op_p50_ms", median(prim.total), ph.speed.Slowdown, len(prim.total))
	timing("op_p95_ms", pct(prim.total, 0.95), ph.speed.Slowdown, len(prim.total))
	timing("agg_p50_ms", median(agg.total), ph.speed.Slowdown, len(agg.total))
	timing("cpu_ms_per_op", ms(ph.cpu)/float64(max(len(done), 1)), ph.speed.Slowdown, len(done))
	res.TailEligible = tailEligible(len(prim.total), pct(prim.total, 0.95))
}

// crossCutting fills the per-workload counters of a traced run.
func crossCutting(res *runResult, p *plan, untraced, traced, readersOnly phaseStats) {
	m := res.Metrics
	ops := float64(max(len(httpOps(traced.samples)), 1))
	for cls := clsSelect; cls < clsAux; cls++ {
		l := classLatencies(traced.samples, cls)
		p50, p95, first := 0.0, 0.0, 0.0
		if len(l.total) > 0 {
			p50, p95, first = median(l.total), pct(l.total, 0.95), median(l.ttfb)
		}
		set(m, "http."+classNames[cls]+"_p50_ms", p50, len(l.total))
		set(m, "http."+classNames[cls]+"_p95_ms", p95, len(l.total))
		set(m, "http."+classNames[cls]+"_ttfb_p50_ms", first, len(l.total))
	}
	var late []float64
	for _, s := range traced.samples {
		late = append(late, ms(s.sent-s.due))
	}
	set(m, "loadgen.late_p95_ms", pct(late, 0.95), len(late))

	// Reader stall: what ingest adds to the reader's tail, by running
	// the same kind of timetable with the writer connections silent.
	stall := 0.0
	if len(readersOnly.samples) > 0 {
		busy := classLatencies(untraced.samples, p.primary)
		idle := classLatencies(readersOnly.samples, p.primary)
		stall = pct(busy.total, 0.95) - pct(idle.total, 0.95)
	}
	set(m, "facade.reader_stall_p95_ms", stall, len(readersOnly.samples))

	set(m, "sched.pool_running_mean", traced.poolRunning, 0)
	set(m, "governor.peak_bytes", float64(traced.govPeak), 0)
	set(m, "runtime.gc_cycles", float64(traced.gcCycles), 0)
	set(m, "runtime.gc_pause_total_ms", float64(traced.gcPauseNs)/1e6, 0)
	set(m, "runtime.allocs_per_op", float64(traced.mallocs)/ops, int(ops))
	set(m, "runtime.alloc_bytes_per_op", float64(traced.allocBytes)/ops, int(ops))
	set(m, "host.steal_ratio", traced.steal, 0)
	set(m, "host.probe_slowdown", traced.speed.Slowdown, traced.speed.Readings)
	ratio := func(hit, miss uint64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	set(m, "sql.plan_cache_hit_ratio", ratio(traced.cache.PlanHits, traced.cache.PlanMisses), int(traced.cache.PlanHits+traced.cache.PlanMisses))
	set(m, "sql.result_cache_hit_ratio", ratio(traced.cache.ResultHits, traced.cache.ResultMisses), int(traced.cache.ResultHits+traced.cache.ResultMisses))
	// Tracing overhead: completed requests per second, untraced over
	// traced, measured back to back in one process.
	rateU := float64(len(httpOps(untraced.samples))) / untraced.d.Seconds()
	rateT := float64(len(httpOps(traced.samples))) / traced.d.Seconds()
	over := 0.0
	if rateT > 0 {
		over = rateU/rateT - 1
	}
	set(m, "trace.overhead_ratio", over, 0)
}
