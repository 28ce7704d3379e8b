// Package lockrank wraps the engine's ranked mutexes so the documented
// lock hierarchy (docs/LOCKING.md) is machine-checked at run time:
// under the amnesiadebug build tag (`make race` sets it) every
// acquisition asserts against the goroutine's held locks and panics
// with both sides named on a hierarchy descent or a relation taken out
// of name order. It is the repo's one lock-order checker; the
// race-enabled concurrency tests are what drive the paths it checks.
//
// The release build (no tag) embeds the sync primitives directly: zero
// wrapping cost, identical method sets.
//
// Two protocols the assertions encode:
//   - relation locks nest only in ascending relation-name order (the
//     catalog names each relation once, through SetName); taking a
//     relation whose name sorts at or before a held one panics.
//   - a relation read lock may be released on a different goroutine
//     than the one that acquired it only through RUnlockFor, which
//     names the acquirer (Self, taken where the lock was acquired):
//     QueryStream hands its relation read locks to a drain watcher
//     that way. Every other release must come from the acquirer; a
//     release that matches no held lock panics.
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
