//go:build amnesiadebug

package lockrank

import (
	"sync"
	"testing"
)

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

func TestRelationNestingAllowed(t *testing.T) {
	var a, b Relation
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
}

func TestDescendingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("catalog under relation did not panic")
		}
	}()
	var c Catalog
	var r Relation
	r.Lock()
	defer r.Unlock()
	c.RLock()
	c.RUnlock()
}

func TestSameRankShardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shard under shard did not panic")
		}
	}()
	var a, b Shard
	a.Lock()
	defer a.Unlock()
	b.Lock()
	b.Unlock()
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
	// The relation rank must be gone from this goroutine's stack.
	c.RLock()
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

// TestUnmatchedReleasePanics pins that a release from a goroutine that
// holds nothing — a cross-goroutine unlock that did not name its
// acquirer — panics instead of being absorbed.
func TestUnmatchedReleasePanics(t *testing.T) {
	var r Relation
	r.RLock()
	got := make(chan any)
	go func() {
		defer func() { got <- recover() }()
		r.RUnlock()
	}()
	if <-got == nil {
		t.Fatal("RUnlock from a non-owner did not panic")
	}
	r.RUnlock() // the panicking release left the lock and its record intact
}
