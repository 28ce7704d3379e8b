package amnesiadb_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"amnesiadb"
	"amnesiadb/internal/durability/failpoint"
	"amnesiadb/internal/engine/governor"
)

// relationFingerprint captures everything queries can observe about a
// flat table: full active contents plus the §2.3 precision triple over
// a few ranges, and the stats counters.
func relationFingerprint(t *testing.T, db *amnesiadb.DB, table string) string {
	t.Helper()
	res, err := db.Query(fmt.Sprintf("SELECT v FROM %s ORDER BY v", table))
	if err != nil {
		t.Fatalf("fingerprint query: %v", err)
	}
	tb, ok := db.Table(table)
	if !ok {
		t.Fatalf("table %q missing", table)
	}
	st := tb.Stats()
	return fmt.Sprintf("%v|%+v", res.Rows, st)
}

func partFingerprint(t *testing.T, db *amnesiadb.DB, name string, domain int64) string {
	t.Helper()
	pt, ok := db.Partitioned(name)
	if !ok {
		t.Fatalf("partitioned table %q missing", name)
	}
	vals, err := pt.Select(0, domain)
	if err != nil {
		t.Fatalf("fingerprint select: %v", err)
	}
	return fmt.Sprintf("%v|%+v|%+v", vals, pt.Partitions(), pt.Stats())
}

// seedFlat populates a flat table with enough churn to exercise every
// WAL record kind: inserts past budget (stochastic forgets), an
// explicit policy change, and a vacuum.
func seedFlat(t *testing.T, db *amnesiadb.DB) {
	t.Helper()
	tb, err := db.CreateTable("events", "v")
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "uniform", Budget: 64}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	for b := 0; b < 8; b++ {
		vals := make([]int64, 32)
		for i := range vals {
			vals[i] = int64(b*32 + i)
		}
		if err := tb.InsertColumn("v", vals); err != nil {
			t.Fatalf("insert batch %d: %v", b, err)
		}
	}
	if err := tb.Vacuum(); err != nil {
		t.Fatalf("Vacuum: %v", err)
	}
	for b := 8; b < 12; b++ {
		vals := make([]int64, 32)
		for i := range vals {
			vals[i] = int64(b*32 + i)
		}
		if err := tb.InsertColumn("v", vals); err != nil {
			t.Fatalf("insert batch %d: %v", b, err)
		}
	}
}

func TestDurableReopenReplaysFlatTable(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 7, Fsync: "off"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	seedFlat(t, db)
	want := relationFingerprint(t, db, "events")
	db.Close()

	re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 7, Fsync: "off"})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := relationFingerprint(t, re, "events"); got != want {
		t.Fatalf("replayed state diverged\n got %s\nwant %s", got, want)
	}
	// The recovered database must stay writable and keep forgetting.
	tb, _ := re.Table("events")
	if err := tb.InsertColumn("v", []int64{9999}); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if got := tb.Stats().Active; got > 64 {
		t.Fatalf("budget not enforced after recovery: %d active", got)
	}
}

func TestDurableReopenReplaysPartitionedTable(t *testing.T) {
	const domain = 1000
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 11, Fsync: "off"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	pt, err := db.CreatePartitionedTable("metrics", "m", domain, 4, "uniform", 120)
	if err != nil {
		t.Fatalf("CreatePartitionedTable: %v", err)
	}
	vals := make([]int64, 400)
	for i := range vals {
		vals[i] = int64((i * 37) % domain)
	}
	if err := pt.Insert(vals); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// Skew the workload toward the first quarter, then adapt so the
	// budgets move and enforcement forgets in the starved shards.
	for i := 0; i < 50; i++ {
		if _, err := pt.Select(0, domain/4); err != nil {
			t.Fatalf("Select: %v", err)
		}
	}
	if err := pt.Adapt(); err != nil {
		t.Fatalf("Adapt: %v", err)
	}
	if err := pt.Insert(vals[:100]); err != nil {
		t.Fatalf("Insert after adapt: %v", err)
	}
	want := partFingerprint(t, db, "metrics", domain)
	db.Close()

	re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 11, Fsync: "off"})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := partFingerprint(t, re, "metrics", domain); got != want {
		t.Fatalf("replayed partitioned state diverged\n got %s\nwant %s", got, want)
	}
}

func TestDurableSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 3, Fsync: "off"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	seedFlat(t, db)
	if err := db.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Mutations after the snapshot land in the new segment and must
	// replay on top of it.
	tb, _ := db.Table("events")
	if err := tb.InsertColumn("v", []int64{5000, 5001}); err != nil {
		t.Fatalf("post-snapshot insert: %v", err)
	}
	want := relationFingerprint(t, db, "events")
	db.Close()

	re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 3, Fsync: "off"})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := relationFingerprint(t, re, "events"); got != want {
		t.Fatalf("post-snapshot state diverged\n got %s\nwant %s", got, want)
	}
}

func TestDurableTornTailIsCrashBoundary(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 5, Fsync: "off"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	seedFlat(t, db)
	want := relationFingerprint(t, db, "events")
	db.Close()

	// Append a partial record to the newest segment — the on-disk image
	// of a process that died mid-write. Recovery must stop at the
	// boundary and keep everything acknowledged before it.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	newest := segs[len(segs)-1]
	f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte{0x01, 0xff, 0x00}); err != nil {
		t.Fatalf("append torn bytes: %v", err)
	}
	f.Close()

	re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 5, Fsync: "off"})
	if err != nil {
		t.Fatalf("reopen across torn tail: %v", err)
	}
	defer re.Close()
	if got := relationFingerprint(t, re, "events"); got != want {
		t.Fatalf("torn-tail recovery diverged\n got %s\nwant %s", got, want)
	}
}

func TestDurableCorruptSnapshotFallsBackAGeneration(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 9, Fsync: "off"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	seedFlat(t, db)
	db.Close()

	// Second session: another snapshot generation plus more WAL.
	db, err = amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 9, Fsync: "off"})
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	tb, _ := db.Table("events")
	if err := tb.InsertColumn("v", []int64{7000, 7001, 7002}); err != nil {
		t.Fatalf("second-session insert: %v", err)
	}
	want := relationFingerprint(t, db, "events")
	db.Close()

	// Corrupt the newest snapshot; recovery must fall back to the
	// previous generation and replay the longer WAL chain to the same
	// state.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.db"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want >= 2 snapshots, have %v (%v)", snaps, err)
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatalf("corrupt snapshot: %v", err)
	}

	re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 9, Fsync: "off"})
	if err != nil {
		t.Fatalf("reopen with corrupt snapshot: %v", err)
	}
	defer re.Close()
	if got := relationFingerprint(t, re, "events"); got != want {
		t.Fatalf("generation fallback diverged\n got %s\nwant %s", got, want)
	}
}

func TestDurableFsyncFailureDegradesToReadOnly(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 1, Fsync: "always"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer db.Close()
	tb, err := db.CreateTable("t", "v")
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := tb.InsertColumn("v", []int64{1, 2, 3}); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}

	// Block the healing probe too: degradation must stay latched — not
	// self-heal — for as long as the probe keeps failing.
	failpoint.Enable(governor.FailpointProbe, failpoint.Error(failpoint.ErrInjected))
	failpoint.Enable("wal.fsync", failpoint.Error(failpoint.ErrInjected))
	defer failpoint.DisableAll()
	if err := tb.InsertColumn("v", []int64{4}); !errors.Is(err, amnesiadb.ErrReadOnly) {
		t.Fatalf("insert during fsync failure: got %v, want ErrReadOnly", err)
	}
	failpoint.Disable("wal.fsync")

	// Latched: the disk being healthy again does not lift read-only mode
	// until a probe succeeds, and every mutator sees it.
	if deg, cause := db.Degraded(); !deg || cause == nil {
		t.Fatalf("Degraded() = %v, %v; want true with a cause", deg, cause)
	}
	if err := tb.InsertColumn("v", []int64{5}); !errors.Is(err, amnesiadb.ErrReadOnly) {
		t.Fatalf("insert after degradation: got %v, want ErrReadOnly", err)
	}
	if _, err := db.CreateTable("t2", "v"); !errors.Is(err, amnesiadb.ErrReadOnly) {
		t.Fatalf("create after degradation: got %v, want ErrReadOnly", err)
	}
	if err := tb.Vacuum(); !errors.Is(err, amnesiadb.ErrReadOnly) {
		t.Fatalf("vacuum after degradation: got %v, want ErrReadOnly", err)
	}
	// Reads keep serving.
	if _, err := db.Query("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatalf("read in degraded mode: %v", err)
	}
	st := db.DurabilityStatus()
	if !st.Durable || !st.Degraded || st.Cause == "" || st.NextProbe.IsZero() {
		t.Fatalf("DurabilityStatus during degradation = %+v, want degraded with cause and a scheduled probe", st)
	}
}

// TestDurableDegradedModeSelfHeals pins the self-healing loop: a
// transient fsync failure degrades the database, and once the probe
// finds the directory healthy again the instance restores write
// service — fresh segment, fresh snapshot — without a restart, and a
// reopen recovers everything including post-heal writes.
func TestDurableDegradedModeSelfHeals(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 7, Fsync: "always"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer db.Close()
	tb, err := db.CreateTable("t", "v")
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := tb.InsertColumn("v", []int64{1, 2, 3}); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}

	failpoint.Enable("wal.fsync", failpoint.Error(failpoint.ErrInjected))
	defer failpoint.DisableAll()
	if err := tb.InsertColumn("v", []int64{4}); !errors.Is(err, amnesiadb.ErrReadOnly) {
		t.Fatalf("insert during fsync failure: got %v, want ErrReadOnly", err)
	}
	failpoint.DisableAll()

	// The disk is healthy again; the prober should clear the latch.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if deg, _ := db.Degraded(); !deg {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still degraded after %v: %+v", 10*time.Second, db.DurabilityStatus())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := db.DurabilityStatus()
	if st.Heals != 1 {
		t.Fatalf("Heals = %d, want 1 (%+v)", st.Heals, st)
	}

	// Write service is restored and post-heal mutations are durable.
	if err := tb.InsertColumn("v", []int64{10, 11}); err != nil {
		t.Fatalf("insert after heal: %v", err)
	}
	want := relationFingerprint(t, db, "t")
	db.Close()
	re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 7, Fsync: "always"})
	if err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	defer re.Close()
	if got := relationFingerprint(t, re, "t"); got != want {
		t.Fatalf("post-heal recovery diverged\n got %s\nwant %s", got, want)
	}
}

func TestDurableTornWriteLosesOnlyUnacknowledged(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 2, Fsync: "always"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	tb, err := db.CreateTable("t", "v")
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := tb.InsertColumn("v", []int64{1, 2, 3}); err != nil {
		t.Fatalf("acknowledged insert: %v", err)
	}
	want := relationFingerprint(t, db, "t")

	// The next batch dies mid-write: a few bytes land, the rest do not,
	// and the mutation is NOT acknowledged.
	failpoint.Enable("wal.write", failpoint.Torn(3))
	if err := tb.InsertColumn("v", []int64{100, 200}); err == nil {
		t.Fatal("torn insert unexpectedly acknowledged")
	}
	failpoint.DisableAll()
	db.Close()

	re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 2, Fsync: "always"})
	if err != nil {
		t.Fatalf("reopen across torn write: %v", err)
	}
	defer re.Close()
	if got := relationFingerprint(t, re, "t"); got != want {
		t.Fatalf("acknowledged state lost or phantom rows appeared\n got %s\nwant %s", got, want)
	}
}

// TestDurableSnapshotConcurrentWithInserts pins the snapshot barrier:
// the catalog must be serialized while every relation is locked, so a
// mutation can never land in both snap-K and wal-K (which replay would
// double-apply) and the serializer never reads a table an Insert is
// appending to (a data race under -race).
func TestDurableSnapshotConcurrentWithInserts(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 6, Fsync: "off"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	tb, err := db.CreateTable("s", "v")
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	const n = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := tb.InsertColumn("v", []int64{int64(i)}); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if err := db.Snapshot(); err != nil {
			t.Errorf("snapshot %d: %v", i, err)
		}
	}
	<-done
	db.Close()

	re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 6, Fsync: "off"})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	res, err := re.Query("SELECT v FROM s ORDER BY v")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Rows) != n {
		t.Fatalf("recovered %d rows, want %d (lost or duplicated mutations)", len(res.Rows), n)
	}
	for i, row := range res.Rows {
		if row[0] != float64(i) {
			t.Fatalf("row %d = %v, want %d (double-applied or lost mutation)", i, row[0], i)
		}
	}
}

// TestDurableMidSegmentCorruptionRejectsGeneration pins the crash
// boundary discrimination: damage in the middle of acknowledged
// history — valid records still follow the corrupt one — must fail
// recovery rather than silently truncate everything after the flip.
func TestDurableMidSegmentCorruptionRejectsGeneration(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 8, Fsync: "always"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	tb, err := db.CreateTable("t", "v")
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for b := 0; b < 20; b++ {
		if err := tb.InsertColumn("v", []int64{int64(b * 3), int64(b*3 + 1), int64(b*3 + 2)}); err != nil {
			t.Fatalf("insert %d: %v", b, err)
		}
	}
	db.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	newest := segs[len(segs)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	// Flip a bit mid-stream: roughly the 10th of 20+ records, so plenty
	// of acknowledged records follow the damage.
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatalf("corrupt segment: %v", err)
	}

	re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 8, Fsync: "always"})
	if err == nil {
		re.Close()
		t.Fatal("mid-segment corruption silently accepted as a crash boundary")
	}
}

// TestDropConcurrentWithInsertStaysRecoverable races DropTable against
// a mutator that already holds a handle: whatever interleaving wins,
// the WAL must stay replayable (no insert record after the drop
// record) and the database must reopen.
func TestDropConcurrentWithInsertStaysRecoverable(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 13, Fsync: "off"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	tb, err := db.CreateTable("r", "v")
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			if err := tb.InsertColumn("v", []int64{int64(i)}); err != nil {
				if !errors.Is(err, amnesiadb.ErrUnknownTable) {
					t.Errorf("racing insert: %v", err)
				}
				return
			}
		}
	}()
	if err := db.DropTable("r"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	<-done
	db.Close()

	re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 13, Fsync: "off"})
	if err != nil {
		t.Fatalf("reopen after racing drop: %v", err)
	}
	re.Close()
}

func TestDurableDropAndDDLReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 4, Fsync: "off"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if _, err := db.CreateTable("keep", "v"); err != nil {
		t.Fatalf("create keep: %v", err)
	}
	if _, err := db.CreateTable("tmp", "v"); err != nil {
		t.Fatalf("create tmp: %v", err)
	}
	if err := db.DropTable("tmp"); err != nil {
		t.Fatalf("drop tmp: %v", err)
	}
	tb, _ := db.Table("keep")
	if err := tb.InsertColumn("v", []int64{42}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	db.Close()

	re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 4, Fsync: "off"})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if _, ok := re.Table("tmp"); ok {
		t.Fatal("dropped table resurrected by replay")
	}
	if got := relationFingerprint(t, re, "keep"); got != relationFingerprint(t, re, "keep") {
		t.Fatal("unstable fingerprint")
	}
	res, err := re.Query("SELECT v FROM keep")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != 42 {
		t.Fatalf("keep contents wrong: %v %v", res, err)
	}
}

// TestDropRecreateInvalidatesResultCache pins the incarnation fix: a
// dropped table's cached results must never serve for a new same-named
// table, even though both start life at table epoch zero.
func TestDropRecreateInvalidatesResultCache(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	defer db.Close()
	tb, err := db.CreateTable("t", "v")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := tb.InsertColumn("v", []int64{1, 2, 3}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	const q = "SELECT SUM(v) FROM t"
	first, err := db.Query(q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	// Query again so the result is cached at the current signature.
	if _, err := db.Query(q); err != nil {
		t.Fatalf("cache-filling query: %v", err)
	}
	if err := db.DropTable("t"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	tb2, err := db.CreateTable("t", "v")
	if err != nil {
		t.Fatalf("recreate: %v", err)
	}
	if err := tb2.InsertColumn("v", []int64{10, 20, 30}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	second, err := db.Query(q)
	if err != nil {
		t.Fatalf("query after recreate: %v", err)
	}
	if reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatalf("stale cached result served across drop/recreate: %v", second.Rows)
	}
	if second.Rows[0][0] != 60 {
		t.Fatalf("SUM after recreate = %v, want 60", second.Rows[0][0])
	}
}

// TestDurableRoundTripEveryStrategy replays what strategies report:
// under every strategy, with and without a retention window, N inserts
// → Close → OpenDir must restore the active bitmap position for
// position and SUM to the last bit — the WAL carries the positions each
// enforcement returned (retention prefix and strategy picks in one
// record beside the batch), so a strategy that misreports, or a log
// site that drops or reorders them, diverges here. EnforceBudget after
// a policy change and a partitioned insert + Adapt ride along.
func TestDurableRoundTripEveryStrategy(t *testing.T) {
	type state struct {
		active []int32
		sum    int64
		stats  amnesiadb.Stats
	}
	capture := func(t *testing.T, db *amnesiadb.DB) state {
		t.Helper()
		tb, ok := db.Table("ev")
		if !ok {
			t.Fatal("table ev missing")
		}
		res, err := tb.Select("v", amnesiadb.All())
		if err != nil {
			t.Fatal(err)
		}
		agg, err := tb.Aggregate("v", amnesiadb.All())
		if err != nil {
			t.Fatal(err)
		}
		return state{active: res.Rows, sum: agg.Sum, stats: tb.Stats()}
	}
	for _, strategy := range amnesiadb.Strategies() {
		for _, maxAge := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/maxAge=%d", strategy, maxAge), func(t *testing.T) {
				dir := t.TempDir()
				opts := amnesiadb.Options{Seed: 11, Fsync: "off"}
				db, err := amnesiadb.OpenDir(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				tb, err := db.CreateTable("ev", "v", "w")
				if err != nil {
					t.Fatal(err)
				}
				if err := tb.SetPolicy(amnesiadb.Policy{Strategy: strategy, Budget: 300, MaxAgeBatches: maxAge}); err != nil {
					t.Fatal(err)
				}
				pm, err := db.CreatePartitionedTable("pm", "v", 1<<20, 4, strategy, 200)
				if err != nil {
					t.Fatal(err)
				}
				next := int64(0)
				for b := 0; b < 10; b++ {
					v, w := make([]int64, 100), make([]int64, 100)
					for i := range v {
						v[i], w[i] = next*7919%(1<<20), next
						next++
					}
					if err := tb.Insert(map[string][]int64{"v": v, "w": w}); err != nil {
						t.Fatal(err)
					}
					if err := pm.Insert(v); err != nil {
						t.Fatal(err)
					}
					// Feed the access counts the query-driven strategies read.
					if _, err := tb.Select("v", amnesiadb.Range(0, 1<<18)); err != nil {
						t.Fatal(err)
					}
					if _, err := pm.Select(0, 1<<18); err != nil {
						t.Fatal(err)
					}
				}
				if err := pm.Adapt(); err != nil {
					t.Fatal(err)
				}
				if err := tb.SetPolicy(amnesiadb.Policy{Strategy: strategy, Budget: 120, MaxAgeBatches: maxAge}); err != nil {
					t.Fatal(err)
				}
				if err := tb.EnforceBudget(); err != nil {
					t.Fatal(err)
				}
				want, wantPM := capture(t, db), partFingerprint(t, db, "pm", 1<<20)
				if want.stats.Active != 120 || want.stats.Forgotten != 880 {
					t.Fatalf("before close: %+v, want 120 active of 1000", want.stats)
				}
				db.Close()

				re, err := amnesiadb.OpenDir(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if got := capture(t, re); !reflect.DeepEqual(got, want) {
					t.Fatalf("replayed state diverged\n got %+v\nwant %+v", got, want)
				}
				if got := partFingerprint(t, re, "pm", 1<<20); got != wantPM {
					t.Fatalf("replayed partitioned state diverged\n got %s\nwant %s", got, wantPM)
				}
			})
		}
	}
}
