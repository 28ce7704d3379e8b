//go:build amnesiadebug

package lockrank

import (
	"fmt"
	"runtime"
	"sync"
)

// A hold is one lock on a goroutine's held stack: its rank and, for
// relation locks, the relation's name.
type hold struct {
	rank int
	name string
}

// reg tracks, per goroutine, the stack of locks currently held. It is
// global and mutex-guarded: the debug build trades throughput for the
// assertion, and the -race CI job is the only consumer.
var reg = struct {
	sync.Mutex
	held map[uint64][]hold
}{held: map[uint64][]hold{}}

// gid extracts the current goroutine's id from its stack header —
// the only portable handle the runtime exposes.
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// "goroutine 123 [running]:"
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// acquire asserts rank order, and relation name order, against this
// goroutine's held locks. The check runs before blocking on the real
// lock: a would-be deadlock panics with the witness instead of hanging
// the test.
func acquire(l hold) {
	g := gid()
	reg.Lock()
	defer reg.Unlock()
	for _, h := range reg.held[g] {
		if h.rank > l.rank || (h.rank == l.rank && l.rank != rankRelation) {
			panic(fmt.Sprintf(
				"lockrank: acquiring %s while holding %s descends the lock hierarchy (docs/LOCKING.md)",
				rankNames[l.rank], rankNames[h.rank]))
		}
		if h.rank == rankRelation && l.rank == rankRelation && l.name <= h.name {
			panic(fmt.Sprintf(
				"lockrank: acquiring relation %q while holding relation %q breaks relation name order (docs/LOCKING.md)",
				l.name, h.name))
		}
	}
}

// record pushes the lock after the real lock succeeded.
func record(l hold) {
	g := gid()
	reg.Lock()
	reg.held[g] = append(reg.held[g], l)
	reg.Unlock()
}

// release pops one instance of l from owner's held stack. A release
// that owner does not hold panics: it is either a double unlock or a
// cross-goroutine release that did not name its acquirer.
func release(owner uint64, l hold) {
	reg.Lock()
	defer reg.Unlock()
	stack := reg.held[owner]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == l {
			stack = append(stack[:i], stack[i+1:]...)
			if len(stack) == 0 {
				delete(reg.held, owner)
			} else {
				reg.held[owner] = stack
			}
			return
		}
	}
	panic(fmt.Sprintf("lockrank: goroutine %d releases a %s lock it does not hold (docs/LOCKING.md)", owner, rankNames[l.rank]))
}

// Owner identifies the goroutine that acquired a lock.
type Owner struct{ g uint64 }

// Self returns the calling goroutine's Owner.
func Self() Owner { return Owner{gid()} }

var catalog, shard = hold{rank: rankCatalog}, hold{rank: rankShard}

// Catalog is the database-wide catalog lock (rank 1).
type Catalog struct{ mu sync.RWMutex }

func (c *Catalog) Lock()    { acquire(catalog); c.mu.Lock(); record(catalog) }
func (c *Catalog) Unlock()  { release(gid(), catalog); c.mu.Unlock() }
func (c *Catalog) RLock()   { acquire(catalog); c.mu.RLock(); record(catalog) }
func (c *Catalog) RUnlock() { release(gid(), catalog); c.mu.RUnlock() }

// Relation is a per-relation lock (rank 2); distinct relations nest in
// ascending name order.
type Relation struct {
	mu   sync.RWMutex
	name string
}

// SetName names the relation for the name-order assertion; the catalog
// sets it once, before the relation is visible to other goroutines.
func (r *Relation) SetName(name string) { r.name = name }

func (r *Relation) hold() hold { return hold{rank: rankRelation, name: r.name} }

func (r *Relation) Lock()    { acquire(r.hold()); r.mu.Lock(); record(r.hold()) }
func (r *Relation) Unlock()  { release(gid(), r.hold()); r.mu.Unlock() }
func (r *Relation) RLock()   { acquire(r.hold()); r.mu.RLock(); record(r.hold()) }
func (r *Relation) RUnlock() { release(gid(), r.hold()); r.mu.RUnlock() }

// RUnlockFor releases a read lock on behalf of owner, the goroutine that
// acquired it (the stream handoff).
func (r *Relation) RUnlockFor(o Owner) { release(o.g, r.hold()); r.mu.RUnlock() }

// Shard is a partition-shard lock (rank 3).
type Shard struct{ mu sync.Mutex }

func (s *Shard) Lock()   { acquire(shard); s.mu.Lock(); record(shard) }
func (s *Shard) Unlock() { release(gid(), shard); s.mu.Unlock() }
