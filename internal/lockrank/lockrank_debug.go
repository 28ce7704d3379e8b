//go:build amnesiadebug

package lockrank

import (
	"fmt"
	"runtime"
	"sync"
)

// reg tracks, per goroutine, the stack of ranks currently held. It is
// global and mutex-guarded: the debug build trades throughput for the
// assertion, and the -race CI job is the only consumer.
var reg = struct {
	sync.Mutex
	held map[uint64][]int
}{held: map[uint64][]int{}}

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

// acquire asserts rank order against this goroutine's held ranks. The
// check runs before blocking on the real lock: a would-be deadlock
// panics with the hierarchy witness instead of hanging the test.
func acquire(rank int) {
	g := gid()
	reg.Lock()
	defer reg.Unlock()
	for _, h := range reg.held[g] {
		if h > rank || (h == rank && rank != rankRelation) {
			panic(fmt.Sprintf(
				"lockrank: acquiring %s while holding %s descends the lock hierarchy (docs/LOCKING.md)",
				rankNames[rank], rankNames[h]))
		}
	}
}

// record pushes the rank after the real lock succeeded.
func record(rank int) {
	g := gid()
	reg.Lock()
	reg.held[g] = append(reg.held[g], rank)
	reg.Unlock()
}

// release pops one instance of rank from owner's held stack. A release
// that owner does not hold panics: it is either a double unlock or a
// cross-goroutine release that did not name its acquirer.
func release(owner uint64, rank int) {
	reg.Lock()
	defer reg.Unlock()
	stack := reg.held[owner]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == rank {
			stack = append(stack[:i], stack[i+1:]...)
			if len(stack) == 0 {
				delete(reg.held, owner)
			} else {
				reg.held[owner] = stack
			}
			return
		}
	}
	panic(fmt.Sprintf("lockrank: goroutine %d releases a %s lock it does not hold (docs/LOCKING.md)", owner, rankNames[rank]))
}

// Owner identifies the goroutine that acquired a lock.
type Owner struct{ g uint64 }

// Self returns the calling goroutine's Owner.
func Self() Owner { return Owner{gid()} }

// Catalog is the database-wide catalog lock (rank 1).
type Catalog struct{ mu sync.RWMutex }

func (c *Catalog) Lock()    { acquire(rankCatalog); c.mu.Lock(); record(rankCatalog) }
func (c *Catalog) Unlock()  { release(gid(), rankCatalog); c.mu.Unlock() }
func (c *Catalog) RLock()   { acquire(rankCatalog); c.mu.RLock(); record(rankCatalog) }
func (c *Catalog) RUnlock() { release(gid(), rankCatalog); c.mu.RUnlock() }

// Relation is a per-relation lock (rank 2); distinct relations nest in
// table-name order.
type Relation struct{ mu sync.RWMutex }

func (r *Relation) Lock()    { acquire(rankRelation); r.mu.Lock(); record(rankRelation) }
func (r *Relation) Unlock()  { release(gid(), rankRelation); r.mu.Unlock() }
func (r *Relation) RLock()   { acquire(rankRelation); r.mu.RLock(); record(rankRelation) }
func (r *Relation) RUnlock() { release(gid(), rankRelation); r.mu.RUnlock() }

// RUnlockFor releases a read lock on behalf of owner, the goroutine that
// acquired it (the stream handoff).
func (r *Relation) RUnlockFor(o Owner) { release(o.g, rankRelation); r.mu.RUnlock() }

// Shard is a partition-shard lock (rank 3).
type Shard struct{ mu sync.Mutex }

func (s *Shard) Lock()   { acquire(rankShard); s.mu.Lock(); record(rankShard) }
func (s *Shard) Unlock() { release(gid(), rankShard); s.mu.Unlock() }
