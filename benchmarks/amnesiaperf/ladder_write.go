package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"amnesiadb"
	"amnesiadb/internal/amnesia"
	"amnesiadb/internal/durability"
	"amnesiadb/internal/partition"
	"amnesiadb/internal/server"
	"amnesiadb/internal/snapshot"
	"amnesiadb/internal/table"
	"amnesiadb/internal/wal"
	"amnesiadb/internal/xrand"
)

const (
	ladderBatch = 4096
	// ladderMaxBudget caps the write and restart ladders' table, so the
	// strategies whose cost grows with the active set stay affordable on
	// the largest workload.
	ladderMaxBudget = 256 << 10
	// restartTail is the number of batches logged after the snapshot a
	// restart replays: fixed, so every run replays the same bytes.
	restartTail = 32
)

// ladderStrategies are the policies the write ladder prices.
var ladderStrategies = []string{"fifo", "uniform", "rot", "decay", "frequent"}

// batches returns n distinct two-column batches over the shape's domain.
func ladderBatches(sh ladderShape, src *xrand.Source, n int) []map[string][]int64 {
	out := make([]map[string][]int64, n)
	for i := range out {
		a := make([]int64, ladderBatch)
		b := make([]int64, ladderBatch)
		for j := range a {
			a[j] = src.Int63n(sh.domain)
			b[j] = src.Int63n(1 << 20)
		}
		out[i] = map[string][]int64{sh.cols[0]: a, sh.cols[1]: b}
	}
	return out
}

// atBudget generates budget tuples of the shape: scan column uniform
// over the domain, second column the row number.
func atBudget(sh ladderShape, src *xrand.Source, budget int) [][]int64 {
	a := make([]int64, budget)
	b := make([]int64, budget)
	for i := range a {
		a[i] = src.Int63n(sh.domain)
		b[i] = int64(i)
	}
	return [][]int64{a, b}
}

// fillFacade creates the shape's table under its policy and fills it to
// the budget.
func fillFacade(db *amnesiadb.DB, sh ladderShape, src *xrand.Source, budget int) (*amnesiadb.Table, error) {
	t, err := db.CreateTable(sh.table, sh.cols...)
	if err != nil {
		return nil, err
	}
	if err := t.SetPolicy(amnesiadb.Policy{Strategy: sh.strategy, Budget: budget}); err != nil {
		return nil, err
	}
	return t, insertBatched(t.Insert, sh.cols, atBudget(sh, src, budget), 64<<10)
}

// perInserted converts a per-batch time to ns per inserted row.
func perInserted(d time.Duration) float64 { return float64(d) / ladderBatch }

// writeLadder prices one 4096-row, two-column batch arriving at a table
// that is at its budget, layer by layer, in ns per inserted row.
func writeLadder(l *ladderRun, r *runner, sh ladderShape) error {
	budget := min(sh.budget, ladderMaxBudget)
	src := xrand.New(l.seed + 2)
	batches := ladderBatches(sh, src, 8)
	var fail firstErr
	check := fail.check

	tbl := table.New(sh.table, sh.cols...)
	appendBatch := func(rows map[string][]int64) error {
		_, err := tbl.AppendBatch(rows)
		return err
	}
	if err := insertBatched(appendBatch, sh.cols, atBudget(sh, src, budget), 64<<10); err != nil {
		return err
	}
	appendT := l.rung("table.append", 2, func(i int) {
		check(appendBatch(batches[i%len(batches)]))
	})
	l.put("table.append_ns_per_row", perInserted(appendT), ladderBatch)

	for _, name := range ladderStrategies {
		strat, err := amnesia.New(name, sh.cols[0], src.Split())
		if err != nil {
			return err
		}
		// Each call first takes the table one batch over its budget, as
		// an insert would; only the strategy's decision is timed.
		d := l.rungTimed("amnesia.forget."+name, 2, func(i int) time.Duration {
			check(appendBatch(batches[i%len(batches)]))
			start := time.Now()
			strat.Forget(tbl, ladderBatch)
			return time.Since(start)
		})
		l.put("amnesia.forget_ns_per_row."+name, perInserted(d), ladderBatch)
	}

	// The bitmap diff that turns a strategy's decision into WAL
	// positions, and the encoding of both records.
	uniform, err := amnesia.New("uniform", sh.cols[0], src.Split())
	if err != nil {
		return err
	}
	var words []uint64
	var forgotten []int
	var walBytes int
	diff := l.rungTimed("table.forget_diff", 2, func(i int) time.Duration {
		start := time.Now()
		var oldLen int
		words, oldLen = tbl.ActiveSnapshot(words)
		snap := time.Since(start)
		check(appendBatch(batches[i%len(batches)]))
		uniform.Forget(tbl, ladderBatch)
		start = time.Now()
		forgotten = tbl.ForgottenSince(words, oldLen)
		return snap + time.Since(start)
	})
	l.put("table.forget_diff_ns_per_row", perInserted(diff), ladderBatch)
	var insertRec []byte
	encode := l.rung("wal.encode", 4, func(i int) {
		rec, err := wal.RecordInsert(sh.table, sh.cols, batches[i%len(batches)])
		check(err)
		insertRec = rec
		walBytes = len(rec) + len(wal.RecordForget(sh.table, forgotten))
	})
	l.put("wal.encode_ns_per_row", perInserted(encode), ladderBatch)
	l.put("wal.bytes_per_user_byte", float64(walBytes)/float64(ladderBatch*len(sh.cols)*8), 1)

	stored := tbl.Len()
	vacuum := l.rungTimed("table.vacuum", 1, func(int) time.Duration {
		for _, b := range batches {
			check(appendBatch(b))
		}
		uniform.Forget(tbl, len(batches)*ladderBatch)
		stored = tbl.Len()
		start := time.Now()
		tbl.Vacuum()
		return time.Since(start)
	})
	l.put("table.vacuum_ns_per_row", float64(vacuum)/float64(stored), stored)
	tbl = nil

	// Group commit: one record from Enqueue to durable, per policy.
	for _, pol := range []durability.FsyncPolicy{durability.FsyncOff, durability.FsyncGroup, durability.FsyncAlways} {
		dir, err := os.MkdirTemp(r.cfg.tmpRoot, "ladder-log-")
		if err != nil {
			return err
		}
		log, err := durability.CreateLog(dir, 1, durability.Options{Policy: pol})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		d := l.rung("durability.commit_wait."+pol.String(), 8, func(int) { check(log.Enqueue(insertRec).Wait()) })
		check(log.Close())
		os.RemoveAll(dir)
		l.put("durability.commit_wait_us."+pol.String(), float64(d)/float64(time.Microsecond), 8)
	}

	// The facade and the server above it, durable exactly when the
	// workload is.
	var db *amnesiadb.DB
	var dir string
	if r.plan.durable {
		if dir, err = os.MkdirTemp(r.cfg.tmpRoot, "ladder-write-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		db, err = amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: l.seed, Fsync: r.plan.opts.Fsync, SegmentBytes: 1 << 40})
		if err != nil {
			return err
		}
	} else {
		db = amnesiadb.Open(amnesiadb.Options{Seed: l.seed})
	}
	defer db.Close()
	t, err := fillFacade(db, sh, src, budget)
	if err != nil {
		return err
	}
	facade := l.rung("facade.insert", 2, func(i int) { check(t.Insert(batches[i%len(batches)])) })
	l.put("facade.insert_ns_per_row", perInserted(facade), ladderBatch)
	handler := server.NewConfigured(db, server.Config{})
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		bodies[i] = insertBody(sh.table, sh.cols, [][]int64{b[sh.cols[0]], b[sh.cols[1]]})
	}
	srv := l.rung("server.insert", 2, func(i int) {
		_, err := serveMem(handler, "/insert", bodies[i%len(bodies)])
		check(err)
	})
	l.put("server.insert_ns_per_row", perInserted(srv), ladderBatch)

	// The partitioned relation: the same batch routed to 16 shards.
	set, err := partition.New(sh.cols[0], sh.domain, mixedShards, "uniform", max(budget/4, mixedShards), src.Split())
	if err != nil {
		return err
	}
	for done := 0; done < budget/4; done += ladderBatch {
		check(set.Insert(batches[(done/ladderBatch)%len(batches)][sh.cols[0]]))
	}
	pins := l.rung("partition.insert", 4, func(i int) { check(set.Insert(batches[i%len(batches)][sh.cols[0]])) })
	l.put("partition.insert_ns_per_row", perInserted(pins), ladderBatch)
	pstored := float64(max(set.Stats().Tuples, 1))
	psel := l.rung("partition.select", ladderPreds, func(i int) {
		lo := int64(i) * (sh.domain - sh.width) / ladderPreds
		_, err := set.Select(lo, lo+sh.width)
		check(err)
	})
	l.put("partition.select_ns_per_row", float64(psel)/pstored, int(pstored))
	adapt := l.rung("partition.adapt", 2, func(int) { set.Adapt() })
	l.put("partition.adapt_ms", ms(adapt), 2)
	if fail.err != nil {
		return fmt.Errorf("write ladder: %w", fail.err)
	}
	return nil
}

// nopApplier decodes WAL records and applies them to nothing, so Replay
// over it costs exactly read, checksum and decode.
type nopApplier struct{ rows int }

func (nopApplier) CreateTable(string, []string) error                              { return nil }
func (nopApplier) CreatePartitioned(string, string, int64, int, string, int) error { return nil }
func (nopApplier) Drop(string) error                                               { return nil }
func (a *nopApplier) Insert(_ string, vals map[string][]int64) error {
	for _, v := range vals {
		a.rows += len(v)
		break
	}
	return nil
}
func (nopApplier) Forget(string, []int) error                   { return nil }
func (nopApplier) Remember(string, []int) error                 { return nil }
func (nopApplier) Vacuum(string) error                          { return nil }
func (nopApplier) PartInsert(string, []wal.ShardMutation) error { return nil }
func (nopApplier) PartAdapt(string, []wal.ShardAdapt) error     { return nil }
func (nopApplier) SetPolicy(string, wal.PolicySpec) error       { return nil }

// copyDir copies a flat directory of regular files.
func copyDir(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func dirBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// restartLadder prices the background snapshot and a restart: an
// explicit snapshot, a fixed WAL tail, then the same directory reopened
// three times from identical copies, so every reopening replays the
// same bytes.
func restartLadder(l *ladderRun, r *runner, sh ladderShape) error {
	budget := min(sh.budget, ladderMaxBudget)
	src := xrand.New(l.seed + 3)
	root, err := os.MkdirTemp(r.cfg.tmpRoot, "ladder-restart-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	dir := filepath.Join(root, "db")
	// The size-triggered snapshotter is kept out of the way: this ladder
	// takes its snapshots explicitly.
	opts := amnesiadb.Options{Seed: l.seed, Fsync: "group", SegmentBytes: 1 << 40}
	db, err := amnesiadb.OpenDir(dir, opts)
	if err != nil {
		return err
	}
	t, err := fillFacade(db, sh, src, budget)
	if err != nil {
		db.Close()
		return err
	}
	var fail firstErr
	check := fail.check
	snap := l.rung("snapshot.write", 1, func(int) { check(db.Snapshot()) })
	l.put("snapshot.write_ms", ms(snap), ladderReps)
	for _, b := range ladderBatches(sh, src, restartTail) {
		check(t.Insert(b))
	}
	checked := []tableCheck{{sh.table, sh.cols[0]}}
	before, err := digest(db, checked)
	check(err)
	active := float64(t.Stats().Active)
	db.Close()
	if fail.err != nil {
		return fmt.Errorf("restart ladder: %w", fail.err)
	}

	gens, _, err := durability.Plan(dir)
	if err != nil || len(gens) == 0 || gens[0].SnapshotPath == "" {
		return fmt.Errorf("restart ladder: no snapshot generation in %s (%v)", dir, err)
	}
	info, err := os.Stat(gens[0].SnapshotPath)
	if err != nil {
		return err
	}
	l.put("snapshot.bytes_per_active_row", float64(info.Size())/active, int(active))
	l.put("durability.disk_bytes_per_active_row", float64(dirBytes(dir))/active, int(active))

	read := l.rung("snapshot.read", 1, func(int) {
		f, err := os.Open(gens[0].SnapshotPath)
		if err != nil {
			check(err)
			return
		}
		defer f.Close()
		_, err = snapshot.ReadCatalog(bufio.NewReaderSize(f, 1<<20))
		check(err)
	})
	l.put("snapshot.read_ms", ms(read), ladderReps)
	tailRows := 0
	decode := l.rung("wal.replay_decode", 1, func(int) {
		a := &nopApplier{}
		for _, seg := range gens[0].Segments {
			f, err := os.Open(seg)
			if err != nil {
				check(err)
				return
			}
			check(wal.Replay(f, a))
			f.Close()
		}
		tailRows = a.rows
	})
	if tailRows != restartTail*ladderBatch {
		check(fmt.Errorf("WAL tail holds %d rows, want %d", tailRows, restartTail*ladderBatch))
	}
	l.put("wal.replay_decode_ns_per_row", float64(decode)/float64(max(tailRows, 1)), tailRows)

	// Identical copies: OpenDir snapshots what it recovered, so a second
	// reopening of the same directory would replay nothing.
	copies := make([]string, ladderReps+1)
	for i := range copies {
		copies[i] = filepath.Join(root, fmt.Sprintf("copy%d", i))
		if err := copyDir(copies[i], dir); err != nil {
			return err
		}
	}
	recover := l.rungTimed("durability.recover", 1, func(i int) time.Duration {
		// rung calls op(0) once to warm up and then once per repetition;
		// hand each call its own copy.
		path := copies[0]
		copies = copies[1:]
		start := time.Now()
		db, err := amnesiadb.OpenDir(path, opts)
		if err != nil {
			check(err)
			return 0
		}
		after, err := digest(db, checked)
		d := time.Since(start)
		check(err)
		if err == nil && after[sh.table] != before[sh.table] {
			check(fmt.Errorf("reopened %s: count %d sum %d, before close count %d sum %d", sh.table,
				after[sh.table].count, after[sh.table].sum, before[sh.table].count, before[sh.table].sum))
		}
		db.Close()
		return d
	})
	l.put("durability.recover_ms", ms(recover), ladderReps)
	l.put("durability.recover_apply_ns_per_row", float64(recover-read-decode)/float64(max(tailRows, 1)), tailRows)
	if fail.err != nil {
		return fmt.Errorf("restart ladder: %w", fail.err)
	}
	return nil
}
