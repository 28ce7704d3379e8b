//go:build amnesiadebug

package lockrank

import (
	"strings"
	"testing"
)

// The assertions themselves: each case breaks the hierarchy and must
// panic. The legal protocols, which must stay silent, are in
// lockrank_test.go and run in both builds.

// TestRelationOutOfOrderPanics pins the name-order assertion: taking a
// relation whose name sorts at or before a held one panics, naming both.
func TestRelationOutOfOrderPanics(t *testing.T) {
	for _, order := range [][]string{{"b", "a"}, {"a", "a"}} {
		rs := named(order...)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `relation "`+order[1]+`" while holding relation "`+order[0]+`"`) {
					t.Errorf("%v: recovered %q, want a name-order panic naming both", order, msg)
				}
			}()
			rs[0].RLock()
			defer rs[0].RUnlock()
			rs[1].RLock()
			rs[1].RUnlock()
		}()
	}
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
