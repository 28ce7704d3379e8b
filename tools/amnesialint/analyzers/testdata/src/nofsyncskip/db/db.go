// Package db exercises the durability handshake: a mutator enqueuing a
// WAL record must await commitWait or hand the Pending to its caller,
// and the commitWait error must reach somebody.
package db

import "fixture/internal/durability"

type DB struct{}

func (d *DB) logRecord(rec int) *durability.Pending { return nil }

func (d *DB) commitWait(p *durability.Pending) error { return nil }

// BadInsert acknowledges before the fsync ack exists.
func (d *DB) BadInsert(v int) error {
	pend := d.logRecord(v) // want nofsyncskip "neither awaits commitWait nor returns the Pending"
	_ = pend
	return nil
}

// GoodInsert awaits the group-commit ack.
func (d *DB) GoodInsert(v int) error {
	pend := d.logRecord(v)
	return d.commitWait(pend)
}

// insertLocked transfers Pending ownership to the caller — the
// append-under-lock, ack-outside-it pattern.
func (d *DB) insertLocked(v int) *durability.Pending {
	return d.logRecord(v)
}

// BadAck throws the ack result away.
func (d *DB) BadAck(v int) {
	pend := d.logRecord(v)
	_ = d.commitWait(pend) // want nofsyncskip "assigned to _"
}

// BadDefer defers the ack with its error discarded.
func (d *DB) BadDefer(v int) {
	pend := d.logRecord(v)
	defer d.commitWait(pend) // want nofsyncskip "deferred with its error discarded"
}

// mutate runs fn under a lock and awaits the Pending it hands back —
// the facade's mutation scaffold.
func (d *DB) mutate(fn func() (*durability.Pending, error)) error {
	p, err := fn()
	if err != nil {
		return err
	}
	return d.commitWait(p)
}

// GoodScaffold enqueues inside a closure that returns the Pending: the
// closure is its own ownership unit and hands the Pending to mutate.
func (d *DB) GoodScaffold(v int) error {
	return d.mutate(func() (*durability.Pending, error) {
		return d.logRecord(v), nil
	})
}

// BadScaffold also enqueues outside the closure, in the declaration
// itself, which neither awaits nor returns that record.
func (d *DB) BadScaffold(v int) error {
	d.logRecord(v) // want nofsyncskip "neither awaits commitWait nor returns the Pending"
	return d.mutate(func() (*durability.Pending, error) {
		return d.logRecord(v), nil
	})
}

// BadScaffoldAck throws an ack away inside a scaffold closure.
func (d *DB) BadScaffoldAck(v int) error {
	return d.mutate(func() (*durability.Pending, error) {
		_ = d.commitWait(d.logRecord(v)) // want nofsyncskip "assigned to _"
		return nil, nil
	})
}
