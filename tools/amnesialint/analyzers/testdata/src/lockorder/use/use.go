// Package use exercises the lock-order rules through the cross-package
// summaries: ascending chains are clean, descents and protocol-free
// same-rank nesting are violations, unlock-closure bindings release,
// and unranked classes participate in cycle detection only.
package use

import (
	"sync"

	"fixture/db"
	"fixture/lockrank"
	"fixture/partition"
	"fixture/sched"
)

// ascending walks the whole hierarchy top to bottom: clean.
func ascending(d *db.DB, t *db.Table, p *partition.Partition, s *sched.Pool) {
	d.RLock()
	t.Lock()
	p.Lock()
	s.Lock()
	s.Unlock()
	p.Unlock()
	t.Unlock()
	d.RUnlock()
}

// descending acquires the catalog lock under a relation lock.
func descending(d *db.DB, t *db.Table) {
	t.Lock()
	d.RLock() // want lockorder "descending"
	d.RUnlock()
	t.Unlock()
}

// sameRankShards nests two shard locks: no protocol exists at that rank.
func sameRankShards(a, b *partition.Partition) {
	a.Lock()
	b.Lock() // want lockorder "same rank"
	b.Unlock()
	a.Unlock()
}

// nameOrderedRelations nests two relation classes: sanctioned by the
// name-order protocol, clean in one direction...
func nameOrderedRelations(t *db.Table, p *db.PTable) {
	t.Lock()
	p.Lock()
	p.Unlock()
	t.Unlock()
}

// ...and in the other: the protocol orders by table name, not class.
func nameOrderedRelationsReversed(t *db.Table, p *db.PTable) {
	p.Lock()
	t.Lock()
	t.Unlock()
	p.Unlock()
}

// auxiliaryLeaf locks DB.SrcMu under a relation lock: auxiliary fields
// are unranked leaves, not the catalog lock, so this is clean.
func auxiliaryLeaf(d *db.DB, t *db.Table) {
	t.Lock()
	d.SrcMu.Lock()
	d.SrcMu.Unlock()
	t.Unlock()
}

// lockTable acquires through one helper hop; its summary returns
// holding the relation lock.
func lockTable(t *db.Table) {
	t.Lock()
}

// heldThenCatalog inherits the relation lock from lockTable's summary
// and then descends.
func heldThenCatalog(d *db.DB, t *db.Table) {
	lockTable(t)
	d.Lock() // want lockorder "descending"
	d.Unlock()
	t.Unlock()
}

// acquireTable returns holding the relation lock, handing back the
// release closure.
func acquireTable(t *db.Table) func() {
	t.Lock()
	return func() { t.Unlock() }
}

// releaseBeforeCatalog calls the bound unlock before touching the
// catalog: the binding releases the summary's held classes, clean.
func releaseBeforeCatalog(d *db.DB, t *db.Table) {
	unlock := acquireTable(t)
	unlock()
	d.Lock()
	d.Unlock()
}

// holdThenCatalog keeps the bound lock across the catalog acquisition.
func holdThenCatalog(d *db.DB, t *db.Table) {
	unlock := acquireTable(t)
	d.Lock() // want lockorder "descending"
	d.Unlock()
	unlock()
}

// openStream read-locks r and returns the release a drain watcher runs
// on another goroutine, naming this one as the owner: the stream
// handoff, so its summary does not return holding the relation.
func openStream(r *db.Rel) func() {
	owner := lockrank.Self()
	r.Mu.RLock()
	return func() { r.Mu.RUnlockFor(owner) }
}

// streamThenCatalog takes the catalog after opening a stream: clean,
// the stream's relation lock was handed off.
func streamThenCatalog(d *db.DB, r *db.Rel) {
	release := openStream(r)
	d.RLock()
	d.RUnlock()
	release()
}

// openStreamUnowned releases without naming an owner: no handoff, so
// its summary returns holding the relation lock.
func openStreamUnowned(r *db.Rel) func() {
	r.Mu.RLock()
	return func() { r.Mu.RUnlock() }
}

func unownedStreamThenCatalog(d *db.DB, r *db.Rel) {
	release := openStreamUnowned(r)
	d.RLock() // want lockorder "descending"
	d.RUnlock()
	release()
}

// aMu and bMu are unranked package-level locks: the hierarchy says
// nothing about them, so only the cycle check watches them.
var (
	aMu sync.Mutex
	bMu sync.Mutex
)

// cycleA and cycleB nest the unranked pair in opposite orders: a
// class-level cycle the rank rules cannot see.
func cycleA() {
	aMu.Lock()
	bMu.Lock() // want lockorder "lock cycle"
	bMu.Unlock()
	aMu.Unlock()
}

func cycleB() {
	bMu.Lock()
	aMu.Lock()
	aMu.Unlock()
	bMu.Unlock()
}

var (
	_ = ascending
	_ = descending
	_ = sameRankShards
	_ = nameOrderedRelations
	_ = nameOrderedRelationsReversed
	_ = auxiliaryLeaf
	_ = heldThenCatalog
	_ = releaseBeforeCatalog
	_ = holdThenCatalog
	_ = streamThenCatalog
	_ = unownedStreamThenCatalog
	_ = cycleA
	_ = cycleB
)
