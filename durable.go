package amnesiadb

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"amnesiadb/internal/durability"
	"amnesiadb/internal/durability/failpoint"
	"amnesiadb/internal/engine/governor"
	"amnesiadb/internal/partition"
	"amnesiadb/internal/snapshot"
	"amnesiadb/internal/wal"
)

// ErrReadOnly is wrapped by every mutation attempted after a
// persistence failure degraded the database to read-only mode. Queries
// keep working; the serving layer maps this to 503 + Retry-After.
var ErrReadOnly = errors.New("amnesiadb: read-only (durability degraded)")

// durableState is the durability wiring OpenDir attaches to a DB: the
// group-commit segment log, the background snapshotter, the sticky
// degraded flag, and the self-healing prober that clears it.
type durableState struct {
	dir  string
	opts durability.Options
	// log is the live segment log. It is an atomic pointer because the
	// healer swaps in a fresh log while committers may be reading it; a
	// committer that loses the race enqueues into the old (closed) log
	// and gets ErrClosed back, never a torn write.
	log atomic.Pointer[durability.Log]

	// degraded latches the first persistence failure; once set, every
	// mutator returns ErrReadOnly and the server reports degraded:true.
	// The background prober re-verifies the WAL directory with
	// exponential backoff and, once a probe succeeds, atomically
	// restores write service (fresh segment + snapshot + manifest)
	// without a restart.
	degraded atomicErr

	// snapMu serialises snapshots; seq (guarded by it) is the live
	// segment's sequence number.
	snapMu sync.Mutex
	seq    int

	snapCh    chan struct{}
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// Prober state. probeMu guards probing (a prober goroutine is live)
	// and stopped (closeDurable ran; no new prober may start — the
	// wg.Add would race its Wait). nextProbe is the unixnano of the next
	// scheduled probe, 0 when none; heals counts successful recoveries;
	// lastHeal and backoff0 implement flap suppression: a heal arriving
	// within healFlapWindow of the previous one doubles the next
	// degradation's initial backoff instead of resetting it, so a disk
	// oscillating between healthy and broken converges to the slow
	// probe cadence rather than thrashing segment creation.
	probeMu   sync.Mutex
	probing   bool
	stopped   bool
	nextProbe atomic.Int64
	heals     atomic.Uint64
	lastHeal  atomic.Int64
	backoff0  atomic.Int64
}

// atomicErr is a latch-style error slot: the first Store wins and only
// an explicit Clear (the healer, after restoring service) resets it.
type atomicErr struct{ p atomic.Pointer[error] }

func (a *atomicErr) Load() error {
	if e := a.p.Load(); e != nil {
		return *e
	}
	return nil
}

func (a *atomicErr) Store(err error) { a.p.CompareAndSwap(nil, &err) }

func (a *atomicErr) Clear() { a.p.Store(nil) }

// OpenDir opens (or creates) a durable database rooted at dir.
// Recovery runs first: the newest valid catalog snapshot is restored
// and the WAL tail behind it replayed, a torn trailing record marking
// the crash boundary; a corrupt snapshot falls back to the previous
// generation. Then a fresh segment and a fresh snapshot are written —
// the engine never appends to a possibly-torn segment — and the
// group-commit log attaches, so every subsequent mutation is
// acknowledged only after its batch reaches disk under Options.Fsync.
// Close flushes and detaches the log without snapshotting, so a
// reopen exercises WAL replay.
func OpenDir(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pol := durability.FsyncGroup
	if opts.Fsync != "" {
		var err error
		if pol, err = durability.ParsePolicy(opts.Fsync); err != nil {
			return nil, err
		}
	}
	dopts := durability.Options{
		Policy:       pol,
		SegmentBytes: opts.SegmentBytes,
	}
	gens, nextSeq, err := durability.Plan(dir)
	if err != nil {
		return nil, err
	}
	var db *DB
	var lastErr error
	for _, g := range gens {
		cand := Open(opts)
		if err := cand.restoreGeneration(g); err != nil {
			lastErr = err
			cand.Close()
			continue
		}
		db = cand
		break
	}
	if db == nil {
		return nil, fmt.Errorf("amnesiadb: recovery failed for every generation in %s: %w", dir, lastErr)
	}
	log, err := durability.CreateLog(dir, nextSeq, dopts)
	if err != nil {
		db.Close()
		return nil, err
	}
	ds := &durableState{
		dir: dir, opts: dopts, seq: nextSeq,
		snapCh: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	ds.log.Store(log)
	ds.backoff0.Store(int64(probeInitialBackoff))
	db.dur = ds
	// Snapshot the recovered state, paired with the fresh segment:
	// recovery next time restores this snapshot and replays only the
	// new segment, and everything older becomes prunable.
	if err := db.persistCatalog(nextSeq, nil); err != nil {
		db.dur = nil
		log.Close()
		db.Close()
		return nil, err
	}
	durability.Prune(dir)
	ds.wg.Add(1)
	go db.snapshotLoop()
	return db, nil
}

// Dir returns the durable directory, "" for an in-memory database.
func (db *DB) Dir() string {
	if db.dur == nil {
		return ""
	}
	return db.dur.dir
}

// Degraded reports whether a persistence failure has latched the
// database read-only, and the failure that did.
func (db *DB) Degraded() (bool, error) {
	if db.dur == nil {
		return false, nil
	}
	err := db.dur.degraded.Load()
	return err != nil, err
}

// writable gates every mutator: nil for in-memory databases and
// healthy durable ones, ErrReadOnly after degradation.
func (db *DB) writable() error {
	if db.dur == nil {
		return nil
	}
	if err := db.dur.degraded.Load(); err != nil {
		return fmt.Errorf("%w: %v", ErrReadOnly, err)
	}
	return nil
}

// degrade latches read-only mode on the first persistence failure and
// starts the healing prober.
func (db *DB) degrade(err error) {
	if db.dur != nil {
		db.dur.degraded.Store(err)
		db.startProber()
	}
}

// logRecord enqueues one framed WAL record; nil-safe for in-memory
// databases and for a nil record (nothing to log). Its only callers
// are handle.mutate, register and unregisterLocked: each enqueues under
// the lock that orders the record and awaits commitWait once unlocked,
// itself or in its direct caller.
func (db *DB) logRecord(rec []byte) *durability.Pending {
	if db.dur == nil || rec == nil {
		return nil
	}
	return db.dur.log.Load().Enqueue(rec)
}

// commitWait blocks until the pending mutation's batch is fsynced (per
// policy); a nil p (in-memory database, or nothing was logged) is a
// no-op. A failure degrades the database and surfaces ErrReadOnly;
// success checks whether the segment has outgrown its threshold and
// pokes the background snapshotter.
func (db *DB) commitWait(p *durability.Pending) error {
	if db.dur == nil || p == nil {
		return nil
	}
	if err := p.Wait(); err != nil {
		db.degrade(err)
		return fmt.Errorf("%w: %v", ErrReadOnly, err)
	}
	if db.dur.log.Load().Size() > db.dur.opts.SegmentThreshold() {
		select {
		case db.dur.snapCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// snapshotLoop is the background snapshotter: when the committer
// signals an oversized segment, rotate and snapshot so the old
// segments become prunable.
func (db *DB) snapshotLoop() {
	defer db.dur.wg.Done()
	for {
		select {
		case <-db.dur.stop:
			return
		case <-db.dur.snapCh:
			db.Snapshot()
		}
	}
}

// Snapshot rotates to a fresh WAL segment and writes a catalog
// snapshot paired with it, truncating the replayable history to the
// new segment. The rotation AND the catalog serialization both run
// under a full-catalog barrier (every relation locked exclusively), so
// the encoded bytes are exactly the state at the moment the new
// segment opened — mutations block until the encoding is complete and
// can never land in both the snapshot and the new segment. Only the
// file write happens after mutations resume. Safe to call
// concurrently; calls serialise.
func (db *DB) Snapshot() error {
	if db.dur == nil {
		return errors.New("amnesiadb: Snapshot on an in-memory database")
	}
	if err := db.writable(); err != nil {
		return err
	}
	db.dur.snapMu.Lock()
	defer db.dur.snapMu.Unlock()
	seq := db.dur.seq + 1
	err := db.persistCatalog(seq, func() error {
		if err := db.dur.log.Load().Rotate(db.dur.dir, seq); err != nil {
			return err
		}
		db.dur.seq = seq
		return nil
	})
	if err != nil {
		// Past the rotation, recovery still works from the previous
		// snapshot plus the full segment chain; a failure anywhere
		// still means persistence is failing.
		db.degrade(err)
		return fmt.Errorf("%w: %v", ErrReadOnly, err)
	}
	durability.Prune(db.dur.dir)
	return nil
}

// persistCatalog writes catalog snapshot seq and points the manifest at
// it. The catalog is encoded under the full barrier — after rotate,
// when given, runs inside it — so the bytes are exactly the state at
// that moment; only the file I/O runs after mutations resume.
func (db *DB) persistCatalog(seq int, rotate func() error) error {
	rels, unlock := db.lockCatalog()
	var cat snapshot.Catalog
	for _, r := range rels {
		r.appendTo(&cat)
	}
	var err error
	if rotate != nil {
		err = rotate()
	}
	var buf bytes.Buffer
	if err == nil {
		err = snapshot.WriteCatalog(&buf, &cat)
	}
	unlock()
	if err != nil {
		return err
	}
	if err := durability.WriteSnapshot(db.dur.dir, seq, buf.Bytes()); err != nil {
		return err
	}
	return durability.RefreshManifest(db.dur.dir, seq)
}

// Probe cadence for the self-healing prober: exponential backoff from
// probeInitialBackoff to probeMaxBackoff. A heal landing within
// healFlapWindow of the previous one doubles the next degradation's
// starting backoff (flap suppression).
const (
	probeInitialBackoff = 100 * time.Millisecond
	probeMaxBackoff     = 30 * time.Second
	healFlapWindow      = 5 * time.Second
)

// DurabilityStatus is the durable layer's health as reported by
// DB.DurabilityStatus and surfaced on /healthz.
type DurabilityStatus struct {
	// Durable is false for in-memory databases; the remaining fields
	// are then zero.
	Durable bool
	// Degraded reports read-only mode; Cause is the latched failure.
	Degraded bool
	Cause    string
	// NextProbe is when the healing prober will next re-verify the WAL
	// directory; zero when no probe is scheduled.
	NextProbe time.Time
	// Heals counts successful degraded-to-writable recoveries.
	Heals uint64
}

// DurabilityStatus snapshots the durable layer's health.
func (db *DB) DurabilityStatus() DurabilityStatus {
	ds := db.dur
	if ds == nil {
		return DurabilityStatus{}
	}
	st := DurabilityStatus{Durable: true, Heals: ds.heals.Load()}
	if err := ds.degraded.Load(); err != nil {
		st.Degraded = true
		st.Cause = err.Error()
	}
	if np := ds.nextProbe.Load(); np != 0 {
		st.NextProbe = time.Unix(0, np)
	}
	return st
}

// startProber launches the healing prober unless one is already
// running or the state is closed. Called on every degradation; the
// probeMu/stopped handshake with closeDurable keeps the wg.Add ordered
// before any Wait.
func (db *DB) startProber() {
	ds := db.dur
	ds.probeMu.Lock()
	defer ds.probeMu.Unlock()
	if ds.stopped || ds.probing {
		return
	}
	ds.probing = true
	// Stamp the schedule before the goroutine exists so a status read
	// immediately after degradation already sees a pending probe; the
	// loop refines it each round.
	backoff := time.Duration(ds.backoff0.Load())
	if backoff < probeInitialBackoff {
		backoff = probeInitialBackoff
	}
	ds.nextProbe.Store(time.Now().Add(backoff).UnixNano())
	ds.wg.Add(1)
	go db.probeLoop()
}

// probeLoop sleeps with exponential backoff, probing the WAL directory
// each wake until a heal succeeds or the database closes.
func (db *DB) probeLoop() {
	ds := db.dur
	defer ds.wg.Done()
	backoff := time.Duration(ds.backoff0.Load())
	if backoff < probeInitialBackoff {
		backoff = probeInitialBackoff
	}
	for {
		ds.nextProbe.Store(time.Now().Add(backoff).UnixNano())
		select {
		case <-ds.stop:
			ds.nextProbe.Store(0)
			return
		case <-time.After(backoff):
		}
		if err := db.tryHeal(); err == nil {
			break
		}
		backoff *= 2
		if backoff > probeMaxBackoff {
			backoff = probeMaxBackoff
		}
	}
	ds.nextProbe.Store(0)
	ds.probeMu.Lock()
	ds.probing = false
	stopped := ds.stopped
	ds.probeMu.Unlock()
	// A failure arriving between the heal and the probing=false store
	// above saw probing=true and declined to start a prober; re-check so
	// that degradation is not left unattended.
	if !stopped && ds.degraded.Load() != nil {
		db.startProber()
	}
}

// tryHeal attempts one degraded-to-writable recovery. The probe first
// verifies the WAL directory accepts durable writes (create + write +
// fsync of a scratch file — the same syscalls a commit needs). On
// success it builds a complete fresh generation BEFORE restoring
// service: new segment at seq+1, a catalog snapshot encoded under the
// full-catalog barrier (no mutations can race it — writers are still
// fenced by the degraded latch), and a manifest refresh. Only once all
// three are durable does it swap the live log and clear the latch; any
// failure removes the partial generation so recovery after a crash
// never sees a header-only segment masking the torn tail of the old
// one. The old log is closed after the swap — late committers racing
// the swap land on whichever log their load saw and either way get a
// resolved error, never a torn write.
func (db *DB) tryHeal() error {
	ds := db.dur
	if err := failpoint.Eval(governor.FailpointProbe); err != nil {
		return err
	}
	if err := probeDir(ds.dir); err != nil {
		return err
	}
	ds.snapMu.Lock()
	defer ds.snapMu.Unlock()
	if ds.degraded.Load() == nil {
		return nil // already healed
	}
	seq := ds.seq + 1
	newLog, err := durability.CreateLog(ds.dir, seq, ds.opts)
	if err != nil {
		return err
	}
	abort := func() {
		newLog.Close()
		os.Remove(durability.SegmentPath(ds.dir, seq))
		os.Remove(durability.SnapshotPath(ds.dir, seq))
	}
	if err := db.persistCatalog(seq, nil); err != nil {
		abort()
		return err
	}
	old := ds.log.Swap(newLog)
	ds.seq = seq
	ds.degraded.Clear()
	now := time.Now().UnixNano()
	if last := ds.lastHeal.Swap(now); last != 0 && now-last < int64(healFlapWindow) {
		b := ds.backoff0.Load() * 2
		if b > int64(probeMaxBackoff) {
			b = int64(probeMaxBackoff)
		}
		ds.backoff0.Store(b)
	} else {
		ds.backoff0.Store(int64(probeInitialBackoff))
	}
	ds.heals.Add(1)
	if old != nil {
		old.Close() // usually already broken; the error is the latched cause
	}
	durability.Prune(ds.dir)
	log.Printf("amnesiadb: durability healed: writable again on segment %d", seq)
	return nil
}

// probeDir verifies dir accepts durable writes: create, write, fsync
// and remove a scratch file.
func probeDir(dir string) error {
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	_, werr := f.Write([]byte("amnesiadb probe"))
	serr := f.Sync()
	cerr := f.Close()
	os.Remove(name)
	if werr != nil {
		return werr
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// lockCatalog takes db.mu plus every relation's exclusive lock in
// name order (the same order QueryStreamCtx locks in) and returns the
// relations in that order — which keeps snapshot sections name-sorted,
// so snapshots stay byte-comparable — with the matching unlock.
func (db *DB) lockCatalog() ([]relation, func()) {
	db.mu.Lock()
	rels := make([]relation, 0, len(db.rels))
	for _, n := range slices.Sorted(maps.Keys(db.rels)) {
		r := db.rels[n]
		r.base().mu.Lock()
		rels = append(rels, r)
	}
	return rels, func() {
		for i := len(rels) - 1; i >= 0; i-- {
			rels[i].base().mu.Unlock()
		}
		db.mu.Unlock()
	}
}

// restoreGeneration rebuilds the catalog from one recovery candidate:
// restore its snapshot (if any), then replay its WAL segments in
// order. A truncated — or corrupt-with-nothing-decodable-after —
// record at the tail of the LAST segment is the crash boundary:
// everything before it is state the engine acknowledged or was about
// to; everything after was never acknowledged. Any other failure
// (damage in an earlier segment, a valid record following the corrupt
// one, a record the catalog rejects) rejects the generation so OpenDir
// can fall back.
func (db *DB) restoreGeneration(g durability.Generation) error {
	if g.SnapshotPath != "" {
		f, err := os.Open(g.SnapshotPath)
		if err != nil {
			return err
		}
		cat, err := snapshot.ReadCatalog(f)
		f.Close()
		if err != nil {
			return err
		}
		for _, te := range cat.Tables {
			t := &Table{handle: handle{db: db, name: te.Table.Name()}, tbl: te.Table}
			if err := t.applyPolicy(Policy(te.Policy)); err != nil {
				return err
			}
			if err := db.register(t, nil); err != nil {
				return err
			}
		}
		for _, pe := range cat.Parts {
			shards := make([]partition.RestoredShard, len(pe.Shards))
			for i, sh := range pe.Shards {
				shards[i] = partition.RestoredShard(sh)
			}
			set, err := partition.Restore(pe.Column, pe.Domain, pe.Strategy, shards, db.splitSrc())
			if err != nil {
				return err
			}
			if err := db.register(&PartitionedTable{handle: handle{db: db, name: pe.Name}, set: set}, nil); err != nil {
				return err
			}
		}
	}
	for i, seg := range g.Segments {
		f, err := os.Open(seg)
		if err != nil {
			return err
		}
		off, rerr := wal.ReplayOffset(f, recoveryApplier{db})
		f.Close()
		if rerr == nil {
			continue
		}
		if i < len(g.Segments)-1 || errors.Is(rerr, wal.ErrApply) {
			// Damage before the newest segment, or a fully-written
			// record the catalog rejects, is never a crash artifact;
			// reject the generation so OpenDir can fall back.
			return rerr
		}
		switch {
		case errors.Is(rerr, wal.ErrTruncated):
			// Torn trailing record: the classic crash boundary. The
			// prefix replayed cleanly and nothing past the boundary was
			// ever acknowledged under fsync=always/group semantics.
		case errors.Is(rerr, wal.ErrCorrupt):
			// A corrupt record in the newest segment is the crash
			// boundary only when it sits at the physical tail. A
			// decodable record after it means acknowledged history was
			// damaged mid-segment — silently truncating there would
			// drop every acknowledged write behind the damage, so
			// reject the generation instead.
			data, err := os.ReadFile(seg)
			if err != nil {
				return err
			}
			if int64(len(data)) > off+1 && wal.ContainsRecord(data[off+1:]) {
				return fmt.Errorf("mid-segment corruption at offset %d of %s: %w", off, filepath.Base(seg), rerr)
			}
		default:
			return rerr
		}
		if st, err := os.Stat(seg); err == nil && st.Size() > off {
			log.Printf("amnesiadb: recovery: %s: crash boundary at offset %d, dropping %d trailing bytes",
				filepath.Base(seg), off, st.Size()-off)
		}
		return nil
	}
	return nil
}

// nextIncarnation returns an epoch advance that stamps a relation
// incarnation into its own disjoint 2^32 epoch range, so a restored or
// recreated same-named relation can never collide with a dropped
// predecessor's result-cache signatures.
func (db *DB) nextIncarnation() uint64 { return db.incarnation.Add(1) << 32 }

// DropTable removes a relation — either kind — from the catalog. The
// tuple storage is released; result-cache entries for the old table
// die with its epoch signature (new same-named tables start in a fresh
// incarnation epoch range). The handle is killed under its exclusive
// lock before the drop record is enqueued: an in-flight mutation
// holding the lock gets its WAL record sequenced before the drop, and
// any later one sees the dead handle and fails without logging — so no
// mutation record can ever follow its relation's drop record.
func (db *DB) DropTable(name string) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	r, ok := db.rels[name]
	if !ok {
		db.mu.Unlock()
		return errUnknown(name)
	}
	p := db.unregisterLocked(r.base(), wal.RecordDrop(name))
	db.mu.Unlock()
	return db.commitWait(p)
}

// unregisterLocked kills h and removes its relation from the catalog
// under h's exclusive lock, enqueueing rec inside it so no mutation
// record can follow it. Callers hold db.mu.
func (db *DB) unregisterLocked(h *handle, rec []byte) *durability.Pending {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dropped = true
	delete(db.rels, h.name)
	return db.logRecord(rec)
}

// recoveryApplier replays WAL records into the DB raw: appends without
// budget enforcement, forgets by logged position — the log records
// *what* was forgotten, never why, so replay reproduces state
// bit-for-bit without re-running any stochastic strategy. Policy and
// vacuum records run the same apply functions the live mutators do.
// db.dur is nil during replay, so nothing re-logs.
type recoveryApplier struct{ db *DB }

func (a recoveryApplier) CreateTable(name string, columns []string) error {
	_, err := a.db.CreateTable(name, columns...)
	return err
}

func (a recoveryApplier) CreatePartitioned(name, column string, domain int64, parts int, strategy string, totalBudget int) error {
	_, err := a.db.CreatePartitionedTable(name, column, domain, parts, strategy, totalBudget)
	return err
}

func (a recoveryApplier) Drop(name string) error { return a.db.DropTable(name) }

func (a recoveryApplier) Insert(name string, vals map[string][]int64) error {
	t, ok := lookup[*Table](a.db, name)
	if !ok {
		return errUnknown(name)
	}
	_, err := t.tbl.AppendBatch(vals)
	return err
}

func (a recoveryApplier) positions(name string, ps []int, remember bool) error {
	t, ok := lookup[*Table](a.db, name)
	if !ok {
		return errUnknown(name)
	}
	for _, p := range ps {
		if p < 0 || p >= t.tbl.Len() {
			return fmt.Errorf("replay position %d outside %q (%d tuples)", p, name, t.tbl.Len())
		}
	}
	if remember {
		for _, p := range ps {
			t.tbl.Remember(p)
		}
		return nil
	}
	t.tbl.ForgetMany(ps)
	return nil
}

func (a recoveryApplier) Forget(name string, ps []int) error {
	return a.positions(name, ps, false)
}

func (a recoveryApplier) Remember(name string, ps []int) error {
	return a.positions(name, ps, true)
}

func (a recoveryApplier) Vacuum(name string) error {
	t, ok := lookup[*Table](a.db, name)
	if !ok {
		return errUnknown(name)
	}
	t.vacuumLocked()
	return nil
}

func (a recoveryApplier) PartInsert(name string, shards []wal.ShardMutation) error {
	p, ok := lookup[*PartitionedTable](a.db, name)
	if !ok {
		return errUnknown(name)
	}
	for _, s := range shards {
		if err := p.set.ReplayShard(s.Shard, s.Values, s.Forgotten); err != nil {
			return err
		}
	}
	return nil
}

func (a recoveryApplier) PartAdapt(name string, shards []wal.ShardAdapt) error {
	p, ok := lookup[*PartitionedTable](a.db, name)
	if !ok {
		return errUnknown(name)
	}
	for _, s := range shards {
		if err := p.set.SetShardBudget(s.Shard, s.Budget); err != nil {
			return err
		}
		if err := p.set.ReplayShard(s.Shard, nil, s.Forgotten); err != nil {
			return err
		}
	}
	return nil
}

func (a recoveryApplier) SetPolicy(name string, spec wal.PolicySpec) error {
	t, ok := lookup[*Table](a.db, name)
	if !ok {
		return errUnknown(name)
	}
	return t.applyPolicy(Policy(spec))
}

// closeDurable flushes and detaches the log. Deliberately no snapshot:
// a clean Close and a crash recover through the identical replay path,
// which keeps that path honest.
func (db *DB) closeDurable() {
	ds := db.dur
	if ds == nil {
		return
	}
	ds.closeOnce.Do(func() {
		ds.probeMu.Lock()
		ds.stopped = true
		ds.probeMu.Unlock()
		close(ds.stop)
		ds.wg.Wait()
		ds.log.Load().Close()
	})
}
