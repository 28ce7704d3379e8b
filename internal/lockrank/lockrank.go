// Package lockrank wraps the engine's ranked mutexes so the documented
// lock hierarchy (docs/LOCKING.md) is machine-checked twice: statically
// by amnesialint's lockorder analyzer, which recognizes these wrapper
// types by name, and dynamically under the amnesiadebug build tag,
// where every acquisition asserts against the goroutine's held ranks
// and panics on a descent the static pass could not see.
//
// The release build (no tag) embeds the sync primitives directly: zero
// wrapping cost, identical method sets.
//
// Two protocols the assertions encode:
//   - relation locks may nest with each other freely at rank level;
//     their real order is the table-name order (docs/LOCKING.md).
//   - a relation read lock may be released on a different goroutine
//     than the one that acquired it only through RUnlockFor, which
//     names the acquirer (Self, taken where the lock was acquired):
//     QueryStream hands its relation read locks to a drain watcher
//     that way. Every other release must come from the acquirer; a
//     release that matches no held rank panics.
package lockrank

// Ranks ascend the hierarchy: catalog → relation → shard. The sched
// pool lock sits below shard but stays a plain sync.Mutex — it is
// owner-internal and never wraps other engine locks.
const (
	rankCatalog = iota + 1
	rankRelation
	rankShard
)

var rankNames = map[int]string{
	rankCatalog:  "catalog",
	rankRelation: "relation",
	rankShard:    "shard",
}
