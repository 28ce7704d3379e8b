// Package governor stubs the quota surface the pairflow rule tracks:
// the method set and import-path shape match the real
// internal/engine/governor.
package governor

// Quota is one query's resource account.
type Quota struct{}

// Acquire charges n governed bytes.
func (q *Quota) Acquire(n int64) error { _ = n; return nil }

// Release returns n previously acquired bytes.
func (q *Quota) Release(n int64) { _ = n }

// Check reports the latched kill error.
func (q *Quota) Check() error { return nil }
