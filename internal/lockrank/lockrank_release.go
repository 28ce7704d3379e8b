//go:build !amnesiadebug

package lockrank

import "sync"

// Catalog is the database-wide catalog lock (rank 1).
type Catalog struct{ sync.RWMutex }

// Relation is a per-relation lock (rank 2); distinct relations nest in
// ascending name order.
type Relation struct{ sync.RWMutex }

// SetName names the relation for the debug build's name-order
// assertion; the release build keeps no name.
func (r *Relation) SetName(string) {}

// RUnlockFor releases a read lock on behalf of owner, the goroutine that
// acquired it (the stream handoff).
func (r *Relation) RUnlockFor(Owner) { r.RUnlock() }

// Shard is a partition-shard lock (rank 3).
type Shard struct{ sync.Mutex }

// Owner identifies the goroutine that acquired a lock; the release
// build tracks no holders, so it carries nothing.
type Owner struct{}

// Self returns the calling goroutine's Owner.
func Self() Owner { return Owner{} }

var _ = rankNames // referenced by the amnesiadebug build
