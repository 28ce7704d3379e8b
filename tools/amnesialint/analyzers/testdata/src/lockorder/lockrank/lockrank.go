// Package lockrank stubs the engine's ranked lock wrappers: the
// classifier ranks any Relation type under an import path ending in
// lockrank, and RUnlockFor is the owner-keyed release of the stream
// handoff.
package lockrank

import "sync"

type Relation struct{ sync.RWMutex }

type Owner struct{}

func Self() Owner { return Owner{} }

func (r *Relation) RUnlockFor(Owner) { r.RUnlock() }
