package lockrank

import (
	"sync"
	"testing"
)

// The protocols below are the legal ones: they must run to completion
// in both builds. Under amnesiadebug they also pin that the rank and
// name-order assertions stay silent on them; in the release build they
// pin that the same API (SetName, Self, RUnlockFor) really locks and
// unlocks. The panicking cases live in lockrank_debug_test.go.

func TestAscendingIsClean(t *testing.T) {
	var c Catalog
	var r Relation
	var s Shard
	c.RLock()
	r.Lock()
	s.Lock()
	s.Unlock()
	r.Unlock()
	c.RUnlock()
}

// named returns relations named in the given order.
func named(names ...string) []*Relation {
	rs := make([]*Relation, len(names))
	for i, n := range names {
		rs[i] = new(Relation)
		rs[i].SetName(n)
	}
	return rs
}

// TestRelationNestingAllowed pins ascending name order as the legal
// nesting: exclusive and shared, three deep.
func TestRelationNestingAllowed(t *testing.T) {
	rs := named("a", "b", "c")
	rs[0].Lock()
	rs[1].RLock()
	rs[2].Lock()
	rs[2].Unlock()
	rs[1].RUnlock()
	rs[0].Unlock()
}

// TestCatalogBarrierThenHandoff runs the two real protocols back to
// back on one goroutine: lockCatalog's catalog-then-every-relation in
// name order, released in reverse, then QueryStream's read locks in
// name order released by a watcher on the acquirer's behalf. Neither
// may panic, and the handoff must leave nothing held behind.
func TestCatalogBarrierThenHandoff(t *testing.T) {
	var c Catalog
	rs := named("alpha", "beta", "gamma")
	c.Lock()
	for _, r := range rs {
		r.Lock()
	}
	for i := len(rs) - 1; i >= 0; i-- {
		rs[i].Unlock()
	}
	c.Unlock()

	for _, r := range rs[1:] {
		r.RLock()
	}
	owner := Self()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, r := range rs[1:] {
			r.RUnlockFor(owner)
		}
	}()
	wg.Wait()
	// Nothing left held: the catalog and every relation are takeable
	// again, exclusively.
	c.Lock()
	for _, r := range rs {
		r.Lock()
		r.Unlock()
	}
	c.Unlock()
}

// TestCrossGoroutineRelease pins the QueryStream handoff protocol: the
// spawning goroutine acquires, a watcher releases on its behalf, and
// the registry must neither panic nor leak the held rank (a later
// catalog acquisition on the spawner would otherwise see a phantom
// relation).
func TestCrossGoroutineRelease(t *testing.T) {
	var r Relation
	var c Catalog
	r.RLock()
	owner := Self()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.RUnlockFor(owner)
	}()
	wg.Wait()
	// The relation rank must be gone from this goroutine's stack, and
	// the read lock itself released.
	c.RLock()
	r.Lock()
	r.Unlock()
	c.RUnlock()
}

// TestHandoffReleasesOnlyTheOwner is the make-race regression: two
// goroutines read-lock two different relations, a third releases the
// first one's lock, and the first then takes the catalog. A release
// that pops from whichever holder it finds first leaves a stale
// relation on the first goroutine half the time, and its catalog
// acquisition panics as a descent; keyed on the owner it never does.
func TestHandoffReleasesOnlyTheOwner(t *testing.T) {
	for i := 0; i < 64; i++ {
		var a, b Relation
		var c Catalog
		bHeld, owner, released, done := make(chan struct{}), make(chan Owner), make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			b.RLock()
			close(bHeld)
			<-done
			b.RUnlock()
		}()
		go func() {
			defer wg.Done()
			defer close(done)
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("iteration %d: %v", i, r)
				}
			}()
			<-bHeld
			a.RLock()
			owner <- Self()
			<-released
			c.RLock()
			c.RUnlock()
		}()
		a.RUnlockFor(<-owner)
		close(released)
		wg.Wait()
	}
}
