package main

import (
	"fmt"
	"time"

	"amnesiadb"
	"amnesiadb/internal/xrand"
)

// workload names one traffic mix and says why it is in the suite.
type workload struct {
	name string
	why  string
	// plan derives everything a run needs from the seed. smoke shrinks
	// the data so a pass takes a couple of seconds.
	plan func(seed uint64, smoke bool) *plan
}

// workloads is the suite, in the order BENCHMARK.json lists it.
var workloads = []workload{
	{"scan_stream", "big in-memory table, streaming range selects and aggregates: kernels, morsel scheduler, chunk pipeline and JSON flush do the work; amnesia, WAL and caches do none", planScanStream},
	{"hot_small", "cache-resident table, 512 Zipfian narrow statements, no writes: per-query fixed cost (plan and result caches, locks, HTTP) is everything; a kernel change must not move it", planHotSmall},
	{"ingest_forget", "durable closed-loop ingest by two writers into one relation at budget under rot: insert, strategy, bitmap diff, WAL group commit and snapshot barrier are the whole cost; the read path is nearly idle", planIngestForget},
	{"mixed_amnesia", "agent-memory shape, durable, open loop at fixed rates: Zipfian top-k reads beside decay-forgetting inserts on the same locks, so one side's gain stalling the other shows here only", planMixedAmnesia},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// precRange is one fixed /precision probe.
type precRange struct {
	table, col string
	lo, hi     int64
}

// live is the database a plan's maintenance calls and verification act
// on; run sets db once set-up is done, and again after a reopen.
type live struct{ db *amnesiadb.DB }

// plan is one workload instantiated for a seed.
type plan struct {
	durable bool
	opts    amnesiadb.Options
	// primary is the class op_p50_ms and op_p95_ms describe.
	primary opClass
	// setup loads a freshly opened database up to the state the timed
	// phase starts from; it is what setup_s times.
	setup func(db *amnesiadb.DB) error
	// release, when set, drops the generated arrays set-up needed, so
	// they are not counted in heap_live_mb.
	release func()
	live    *live
	// coda, when set, runs after the timed phases and before the
	// precision probes: it brings the forgotten-but-stored tuples to a
	// fixed count, so precision_pf does not depend on where in a vacuum
	// cycle the clock happened to stop the run.
	coda func(db *amnesiadb.DB) error

	statements int
	// clientOps holds each connection's operations. order, per
	// connection, is the sequence a closed loop cycles through, as
	// indices into its operations; nil means the operations in order.
	// (Indices, not copies: a long sequence of operations is a long
	// array of pointers the collector would mark in every cycle of the
	// system under test.) For an open loop order is what a reader
	// connection cycles through in the phase that measures throughput:
	// the timetable's mix without its clock.
	clientOps [][]op
	order     [][]int32
	// streams, for an open loop, gives each connection's arrival
	// processes; nil means closed loop.
	streams [][]stream
	// writer marks the connections that carry inserts (idled for the
	// reader-stall comparison).
	writer []bool

	precision []precRange
	// verify checks answers against an oracle or an invariant after the
	// timed phase; tables lists the relations whose COUNT and SUM must
	// survive a reopen (durable plans).
	verify func(v *verifier) error
	tables []tableCheck

	shape ladderShape
}

// tableCheck names one relation and the column whose COUNT and SUM are
// compared across a reopen.
type tableCheck struct{ table, col string }

// ladderShape tells the traced run's ladders what this workload's main
// relation looks like, so each rung is timed on the same shape of data
// the end-to-end numbers came from.
type ladderShape struct {
	table    string   // relation in the live database the upper rungs query
	cols     []string // scan column first
	domain   int64    // scan-column values are uniform over [0, domain)
	width    int64    // predicate width of the read ladder's ranges
	orderCol string   // ORDER BY column of the fixed-cost statement
	pointW   int64    // predicate width of the fixed-cost statement
	strategy string   // forgetting strategy of the write ladder's table
	budget   int      // its budget
}

// insertBatched feeds columns to insert in batches of at most batch
// rows; insert is Table.Insert, or a bare table's AppendBatch.
func insertBatched(insert func(map[string][]int64) error, names []string, cols [][]int64, batch int) error {
	for i, n := 0, len(cols[0]); i < n; i += batch {
		j := min(i+batch, n)
		rows := make(map[string][]int64, len(names))
		for c, name := range names {
			rows[name] = cols[c][i:j]
		}
		if err := insert(rows); err != nil {
			return err
		}
	}
	return nil
}

// sizes, full and smoke.
func pick(smoke bool, full, small int) int {
	if smoke {
		return small
	}
	return full
}

const scanDomain = int64(1) << 30

// scanPattern is scan_stream's fixed six-statement cycle: four streaming
// selects at 0.1, 1, 1 and 5 % selectivity and two aggregates at 25 and
// 50 %. With the mix fixed, the select class's median lies inside the
// 1 % group and its p95 inside the 5 % group, so neither straddles two
// populations.
var scanPattern = []struct {
	class opClass
	sel   float64
}{
	{clsSelect, 0.001}, {clsSelect, 0.01}, {clsAgg, 0.25},
	{clsSelect, 0.01}, {clsSelect, 0.05}, {clsAgg, 0.50},
}

func planScanStream(seed uint64, smoke bool) *plan {
	n := pick(smoke, 4<<20, 256<<10)
	src := xrand.New(seed)
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = src.Int63n(scanDomain)
		b[i] = int64(i)
	}
	p := &plan{primary: clsSelect, live: &live{}}
	p.opts = amnesiadb.Options{Seed: seed}
	p.setup = func(db *amnesiadb.DB) error {
		t, err := db.CreateTable("big", "a", "b")
		if err != nil {
			return err
		}
		if err := insertBatched(t.Insert, []string{"a", "b"}, [][]int64{a, b}, 1<<20); err != nil {
			return err
		}
		// A quarter forgotten, so scans take the active-bitmap path.
		if err := t.SetPolicy(amnesiadb.Policy{Strategy: "uniform", Budget: n * 3 / 4}); err != nil {
			return err
		}
		return t.EnforceBudget()
	}
	p.release = func() { a, b = nil, nil }

	// Every statement is distinct: nothing repeats within a run, so the
	// aggregates cannot be answered from the result cache even where a
	// server enables one, and the selects exceed one chunk anyway.
	const cycles = 1024
	var stmts []string
	for c := 0; c < 2; c++ {
		rnd := src.Split()
		var ops []op
		for k := 0; k < cycles; k++ {
			for _, pat := range scanPattern {
				w := int64(float64(scanDomain) * pat.sel)
				x := rnd.Int63n(scanDomain - w)
				var sql string
				if pat.class == clsSelect {
					sql = fmt.Sprintf("SELECT a, b FROM big WHERE a >= %d AND a < %d", x, x+w)
				} else if k%2 == 0 {
					sql = fmt.Sprintf("SELECT COUNT(*) FROM big WHERE a >= %d AND a < %d", x, x+w)
				} else {
					sql = fmt.Sprintf("SELECT SUM(a) FROM big WHERE a >= %d AND a < %d", x, x+w)
				}
				ops = append(ops, op{class: pat.class, path: "/query", body: queryBody(sql), stmt: len(stmts)})
				stmts = append(stmts, sql)
			}
		}
		p.clientOps = append(p.clientOps, ops)
		p.order = append(p.order, nil)
	}
	p.statements = len(stmts)
	for i := 0; i < 32; i++ {
		lo := int64(i) * (scanDomain / 32)
		p.precision = append(p.precision, precRange{"big", "a", lo, lo + scanDomain/64})
	}
	p.verify = func(v *verifier) error { return verifyScanStream(v, stmts) }
	p.shape = ladderShape{table: "big", cols: []string{"a", "b"}, domain: scanDomain, width: scanDomain / 100,
		orderCol: "b", pointW: scanDomain / int64(n) * 64, strategy: "uniform", budget: n * 3 / 4}
	return p
}

// hotStatements is hot_small's statement count; the result cache holds
// half as many entries, so the working set is twice the cache.
const (
	hotStatements = 512
	hotCache      = 256
	hotWidth      = 64
)

func planHotSmall(seed uint64, smoke bool) *plan {
	n := pick(smoke, 256<<10, 32<<10)
	src := xrand.New(seed)
	// ids and scores are permutations: ids arrive in random order and
	// no two scores tie, so every top-k has exactly one right answer.
	id := make([]int64, n)
	score := make([]int64, n)
	for i, v := range src.Perm(n) {
		id[i] = int64(v)
	}
	for i, v := range src.Perm(n) {
		score[i] = int64(v)
	}
	forgotten := n / 8
	p := &plan{primary: clsPoint, live: &live{}}
	p.opts = amnesiadb.Options{Seed: seed, CacheEntries: hotCache}
	p.setup = func(db *amnesiadb.DB) error {
		t, err := db.CreateTable("mem", "id", "score")
		if err != nil {
			return err
		}
		if err := insertBatched(t.Insert, []string{"id", "score"}, [][]int64{id, score}, forgotten); err != nil {
			return err
		}
		// fifo forgets the first batch exactly, which the oracle below
		// can reproduce from the generated slices alone.
		if err := t.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: n - forgotten}); err != nil {
			return err
		}
		return t.EnforceBudget()
	}
	stmts := make([]string, hotStatements)
	keys := make([]int64, hotStatements/2)
	for j := range keys {
		k := src.Int63n(int64(n - hotWidth))
		keys[j] = k
		stmts[2*j] = fmt.Sprintf("SELECT id, score FROM mem WHERE id >= %d AND id < %d ORDER BY score LIMIT 10", k, k+hotWidth)
		stmts[2*j+1] = fmt.Sprintf("SELECT COUNT(*) FROM mem WHERE id >= %d AND id < %d", k, k+hotWidth)
	}
	ops := make([]op, hotStatements)
	for s, sql := range stmts {
		cls := clsPoint
		if s%2 == 1 {
			cls = clsAgg
		}
		ops[s] = op{class: cls, path: "/query", body: queryBody(sql), stmt: s}
	}
	// Popularity belongs to the key, drawn Zipfian; the two statement
	// kinds alternate. Both classes thus see the same popularity curve
	// whatever the seed, so neither's share of cache misses depends on
	// which kind the hottest key happened to get.
	for c := 0; c < 2; c++ {
		z := xrand.NewZipf(src.Split(), hotStatements/2, 1.1)
		seq := make([]int32, 1<<16)
		for i := range seq {
			seq[i] = int32(2*int(z.Next()) + i%2)
		}
		p.clientOps = append(p.clientOps, ops)
		p.order = append(p.order, seq)
	}
	p.statements = hotStatements
	for i := 0; i < 32; i++ {
		lo := int64(i) * int64(n/32)
		p.precision = append(p.precision, precRange{"mem", "id", lo, lo + int64(n/64)})
	}
	p.verify = func(v *verifier) error {
		return verifyHotSmall(v, stmts, keys, id[forgotten:], score[forgotten:])
	}
	p.shape = ladderShape{table: "mem", cols: []string{"id", "score"}, domain: int64(n), width: int64(n / 100),
		orderCol: "score", pointW: hotWidth, strategy: "fifo", budget: n - forgotten}
	return p
}

const (
	ingestBatch  = 4096
	ingestDomain = int64(1) << 30
	// ingestBodies is how many distinct pre-encoded batches each table
	// cycles through; values are uniform, so the table's distribution is
	// stationary however long the run.
	ingestBodies = 32
)

func planIngestForget(seed uint64, smoke bool) *plan {
	budget := pick(smoke, 64<<10, 16<<10)
	src := xrand.New(seed)
	p := &plan{durable: true, primary: clsInsert, live: &live{}}
	// A small segment threshold makes the size-triggered snapshotter
	// cycle several times inside one timed phase.
	p.opts = amnesiadb.Options{Seed: seed, Fsync: "group", SegmentBytes: int64(pick(smoke, 16<<20, 2<<20))}
	// One relation, two writers. With a relation per writer the two
	// strategy passes (tens of milliseconds of pure computation each) ran
	// side by side on the box's two virtual processors, and whenever the
	// host took one of those away for a few hundred milliseconds — which
	// it does, to a guest that keeps both busy, for anything between 0 and
	// 15 % of a run — both inserts took twice as long: op_p95_ms then read
	// 48 ms or 85 ms depending on which side of 5 % the run fell. Writers
	// to one relation take turns at its exclusive lock, so one processor
	// computes while the other decodes the next batch.
	const table = "ev"
	cols := []string{"ts", "val"}
	fill := [][]int64{make([]int64, budget), make([]int64, budget)}
	for i := 0; i < budget; i++ {
		fill[0][i] = src.Int63n(ingestDomain)
		fill[1][i] = src.Int63n(1 << 20)
	}
	p.setup = func(db *amnesiadb.DB) error {
		t, err := db.CreateTable(table, cols...)
		if err != nil {
			return err
		}
		if err := t.SetPolicy(amnesiadb.Policy{Strategy: "rot", Budget: budget}); err != nil {
			return err
		}
		return insertBatched(t.Insert, cols, fill, 64<<10)
	}
	p.release = func() { fill = nil }

	lv := p.live
	vacuum := op{class: clsAux, stmt: -1, call: func() error {
		t, ok := lv.db.Table(table)
		if !ok {
			return fmt.Errorf("table %q missing", table)
		}
		return t.Vacuum()
	}}
	for c := 0; c < 2; c++ {
		rnd := src.Split()
		bodies := make([][]byte, ingestBodies)
		ts := make([]int64, ingestBatch)
		val := make([]int64, ingestBatch)
		for i := range bodies {
			for j := range ts {
				ts[j] = rnd.Int63n(ingestDomain)
				val[j] = rnd.Int63n(1 << 20)
			}
			bodies[i] = insertBody(table, cols, [][]int64{ts, val})
		}
		// One cycle: 64 operations, every 8th a range aggregate that
		// feeds rot's access counts; the first connection then vacuums.
		var ops []op
		for rep, ins := 0, 0; rep < 8; rep++ {
			for j := 0; j < 64; j++ {
				if j%8 == 7 {
					x := rnd.Int63n(ingestDomain - ingestDomain/16)
					sql := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE ts >= %d AND ts < %d", table, x, x+ingestDomain/16)
					ops = append(ops, op{class: clsAgg, path: "/query", body: queryBody(sql), stmt: -1})
					continue
				}
				ops = append(ops, op{class: clsInsert, path: "/insert", body: bodies[ins%ingestBodies], stmt: -1})
				ins++
			}
			if c == 0 {
				ops = append(ops, vacuum)
			}
		}
		p.clientOps = append(p.clientOps, ops)
		p.order = append(p.order, nil)
	}
	for i := 0; i < 32; i++ {
		lo := int64(i) * (ingestDomain / 32)
		p.precision = append(p.precision, precRange{table, "ts", lo, lo + ingestDomain/64})
	}
	p.tables = []tableCheck{{table, "ts"}}
	p.coda = func(db *amnesiadb.DB) error { return settle(db, []string{table}, cols, ingestDomain, seed) }
	p.verify = func(v *verifier) error { return verifyBudgets(v, []string{table}, budget) }
	p.shape = ladderShape{table: table, cols: cols, domain: ingestDomain, width: ingestDomain / 100,
		orderCol: "val", pointW: ingestDomain / int64(budget) * 64, strategy: "rot", budget: budget}
	return p
}

// mixed_amnesia's offered load. The rates are frozen here: the point of
// the open loop is that the offered load does not depend on how fast
// the system answers. One decay enforcement over the 128 Ki-tuple budget
// costs some 50 ms, all of it under the relation's exclusive lock, so
// four inserts a second keep the writer connection a fifth busy on the
// 2-core reference box and stall one read in five: op_p95_ms lies
// inside the stalled reads and follows the lock hold time. (At six a
// second the stalled share neared one half on a slow day and took the
// median with it.)
const (
	mixedPointsPerSec  = 200.0
	mixedAggsPerSec    = 10.0
	mixedInsertsPerSec = 4.0
	mixedMaintEvery    = 5 * time.Second
	mixedBatch         = 2048
	mixedShards        = 16
	mixedKeys          = 512
)

func planMixedAmnesia(seed uint64, smoke bool) *plan {
	budget := pick(smoke, 128<<10, 16<<10)
	domain := int64(budget) * 2
	pmBudget := budget / 4
	src := xrand.New(seed)
	p := &plan{durable: true, primary: clsPoint, live: &live{}}
	p.opts = amnesiadb.Options{Seed: seed, Fsync: "group", CacheEntries: hotCache, SegmentBytes: int64(pick(smoke, 16<<20, 2<<20))}
	id := make([]int64, budget)
	score := make([]int64, budget)
	pmv := make([]int64, pmBudget)
	for i := range id {
		id[i] = src.Int63n(domain)
		score[i] = src.Int63n(1 << 40)
	}
	for i := range pmv {
		pmv[i] = src.Int63n(domain)
	}
	p.setup = func(db *amnesiadb.DB) error {
		t, err := db.CreateTable("mem", "id", "score")
		if err != nil {
			return err
		}
		if err := t.SetPolicy(amnesiadb.Policy{Strategy: "decay", Budget: budget}); err != nil {
			return err
		}
		if err := insertBatched(t.Insert, []string{"id", "score"}, [][]int64{id, score}, 64<<10); err != nil {
			return err
		}
		pm, err := db.CreatePartitionedTable("pm", "id", domain, mixedShards, "uniform", pmBudget)
		if err != nil {
			return err
		}
		return insertBatched(func(rows map[string][]int64) error { return pm.Insert(rows["id"]) },
			[]string{"id"}, [][]int64{pmv}, 64<<10)
	}
	p.release = func() { id, score, pmv = nil, nil, nil }

	// Reader connection: top-k statements over Zipfian keys, nine in ten
	// on mem and the tenth on the partitioned pm, plus counts over an
	// eighth of mem's id domain.
	var reader []op
	var pointIdx, aggIdx []int
	keyOf := make([]int64, mixedKeys)
	for s := 0; s < mixedKeys; s++ {
		k := src.Int63n(domain - hotWidth)
		keyOf[s] = k
		// Two statements per key: reader[2s] over mem, reader[2s+1] over pm.
		for _, sql := range []string{
			fmt.Sprintf("SELECT id, score FROM mem WHERE id >= %d AND id < %d ORDER BY score LIMIT 10", k, k+hotWidth),
			fmt.Sprintf("SELECT id FROM pm WHERE id >= %d AND id < %d ORDER BY id LIMIT 10", k, k+hotWidth),
		} {
			reader = append(reader, op{class: clsPoint, path: "/query", body: queryBody(sql), stmt: -1})
		}
	}
	// Keys are drawn Zipfian; every tenth draw reads pm, so the split
	// between the two relations does not depend on which keys are hot.
	z := xrand.NewZipf(src.Split(), mixedKeys, 1.1)
	for i := 0; i < 1<<14; i++ {
		idx := 2 * int(z.Next())
		if i%10 == 9 {
			idx++
		}
		pointIdx = append(pointIdx, idx)
	}
	for i := 0; i < 64; i++ {
		x := src.Int63n(domain - domain/8)
		sql := fmt.Sprintf("SELECT COUNT(*) FROM mem WHERE id >= %d AND id < %d", x, x+domain/8)
		aggIdx = append(aggIdx, len(reader))
		reader = append(reader, op{class: clsAgg, path: "/query", body: queryBody(sql), stmt: -1})
	}

	// Writer connection: three batches in four go to mem, one to pm;
	// Adapt runs every few seconds as a maintenance call.
	lv := p.live
	var writer []op
	var insIdx []int
	rnd := src.Split()
	ids := make([]int64, mixedBatch)
	scores := make([]int64, mixedBatch)
	for i := 0; i < ingestBodies; i++ {
		for j := range ids {
			ids[j] = rnd.Int63n(domain)
			scores[j] = rnd.Int63n(1 << 40)
		}
		var body []byte
		if i%4 == 3 {
			body = insertBody("pm", []string{"id"}, [][]int64{ids})
		} else {
			body = insertBody("mem", []string{"id", "score"}, [][]int64{ids, scores})
		}
		insIdx = append(insIdx, len(writer))
		writer = append(writer, op{class: clsInsert, path: "/insert", body: body, stmt: -1})
	}
	// Maintenance, every few seconds: rebalance pm's shard budgets and
	// reclaim what mem has forgotten.
	maintIdx := len(writer)
	writer = append(writer, op{class: clsAux, stmt: -1, call: func() error {
		pm, ok := lv.db.Partitioned("pm")
		if !ok {
			return fmt.Errorf("partitioned table pm missing")
		}
		if err := pm.Adapt(); err != nil {
			return err
		}
		mem, ok := lv.db.Table("mem")
		if !ok {
			return fmt.Errorf("table mem missing")
		}
		return mem.Vacuum()
	}})
	p.clientOps = [][]op{reader, writer}
	p.streams = [][]stream{
		{{perSec: mixedPointsPerSec, from: pointIdx}, {perSec: mixedAggsPerSec, from: aggIdx}},
		// The writer's few, expensive operations arrive evenly spaced: a
		// Poisson count of them would move the readers' tail by itself.
		{{perSec: mixedInsertsPerSec, from: insIdx, periodic: true},
			{perSec: 1 / mixedMaintEvery.Seconds(), from: []int{maintIdx}, periodic: true}},
	}
	p.writer = []bool{false, true}
	// The reader's closed-loop sequence: the same Zipfian draws, with an
	// aggregate after every 20 top-k statements (200 : 10).
	var sat []int32
	for i, idx := range pointIdx {
		sat = append(sat, int32(idx))
		if i%20 == 19 {
			sat = append(sat, int32(aggIdx[(i/20)%len(aggIdx)]))
		}
	}
	p.order = [][]int32{sat, nil}
	for i := 0; i < 32; i++ {
		lo := int64(i) * (domain / 32)
		p.precision = append(p.precision, precRange{"mem", "id", lo, lo + domain/64})
	}
	p.tables = []tableCheck{{"mem", "id"}, {"pm", "id"}}
	p.coda = func(db *amnesiadb.DB) error {
		return settle(db, []string{"mem"}, []string{"id", "score"}, domain, seed)
	}
	p.verify = func(v *verifier) error {
		if err := verifyBudgets(v, []string{"mem"}, budget); err != nil {
			return err
		}
		return verifyTopK(v, "mem", keyOf[:8])
	}
	p.shape = ladderShape{table: "mem", cols: []string{"id", "score"}, domain: domain, width: domain / 100,
		orderCol: "score", pointW: hotWidth, strategy: "decay", budget: budget}
	return p
}

// settleBatches is how many batches settle inserts after its Vacuum.
const settleBatches = 16

// settle brings each table to a fixed amount of forgotten-but-stored
// data: a Vacuum, then settleBatches full batches, each of which makes
// the policy forget as many tuples as it adds.
func settle(db *amnesiadb.DB, tables, cols []string, domain int64, seed uint64) error {
	src := xrand.New(seed ^ 0x5e771e)
	for _, name := range tables {
		t, ok := db.Table(name)
		if !ok {
			return fmt.Errorf("table %q missing", name)
		}
		if err := t.Vacuum(); err != nil {
			return err
		}
		for b := 0; b < settleBatches; b++ {
			batch := make(map[string][]int64, len(cols))
			for _, c := range cols {
				vals := make([]int64, ingestBatch)
				for i := range vals {
					vals[i] = src.Int63n(domain)
				}
				batch[c] = vals
			}
			if err := t.Insert(batch); err != nil {
				return err
			}
		}
	}
	return nil
}
