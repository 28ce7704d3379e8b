package durability

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"amnesiadb/internal/durability/failpoint"
	"amnesiadb/internal/wal"
)

// ErrClosed reports an Enqueue after Close.
var ErrClosed = errors.New("durability: log closed")

// Options tunes the segment log.
type Options struct {
	// Policy selects the fsync discipline; see FsyncPolicy.
	Policy FsyncPolicy
	// SegmentBytes is the size past which the owner should snapshot
	// and rotate. Zero means 64 MiB. The log only reports (Size); the
	// owner decides when to rotate, because rotation pairs with a
	// snapshot.
	SegmentBytes int64
}

// SegmentThreshold resolves the rotation threshold.
func (o *Options) SegmentThreshold() int64 {
	if o.SegmentBytes <= 0 {
		return 64 << 20
	}
	return o.SegmentBytes
}

// Pending is one mutation's place in the commit queue: one framed
// record, or several back to back that must land together. Wait blocks
// until the batch containing them has been written and (per policy)
// fsynced; its error is the write/sync failure, after which
// the log is sticky-broken and the owner should degrade to read-only.
type Pending struct {
	data []byte
	err  error
	done chan struct{}
}

// Wait blocks until the record's batch is durable (or failed).
func (p *Pending) Wait() error {
	<-p.done
	return p.err
}

// Log is a single WAL segment with a group-commit writer: Enqueue
// appends a framed record to an in-memory queue and returns a Pending;
// a dedicated committer goroutine drains the queue in batches, writes
// them with one syscall, fsyncs per policy, and wakes every waiter in
// the batch. One fsync therefore commits every mutation that queued
// while the previous one ran — the classic group commit — and one that
// finds the committer idle is written at once: batches form only while
// a sync is in flight, never by waiting for company.
type Log struct {
	opts Options

	mu     sync.Mutex
	cond   *sync.Cond
	f      *os.File
	path   string
	seq    int
	size   int64
	queue  []*Pending
	err    error // sticky: first write/sync failure
	closed bool
	done   chan struct{}

	// buf concatenates a batch of several records for its one write.
	// Only the committer touches it: it reuses it while batches come
	// back to back and drops it when the queue runs dry, so an idle log
	// holds no buffer.
	buf []byte
}

// CreateLog opens (creating if absent) segment seq in dir, writes the
// WAL header if the file is new, and starts the committer. The caller
// owns rotation and close.
func CreateLog(dir string, seq int, opts Options) (*Log, error) {
	l := &Log{opts: opts, done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	if err := l.openSegment(dir, seq); err != nil {
		return nil, err
	}
	go l.run()
	return l, nil
}

// openSegment opens wal-<seq>.log for append, writing and syncing the
// header when the file is empty. Callers hold l.mu or have not yet
// started the committer.
func (l *Log) openSegment(dir string, seq int) error {
	path := SegmentPath(dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	size := st.Size()
	if size == 0 {
		hdr := wal.AppendHeader(nil)
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		size = int64(len(hdr))
	}
	l.f, l.path, l.seq, l.size = f, path, seq, size
	return nil
}

// Seq returns the current segment's sequence number.
func (l *Log) Seq() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Size returns the current segment's byte size including queued
// records, the owner's rotation signal.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Err returns the sticky error, nil while the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Enqueue appends one mutation's framed record (or records) to the
// commit queue; the returned Pending resolves when they are durable.
// On a broken or closed log it resolves at once with the sticky error.
func (l *Log) Enqueue(rec []byte) *Pending {
	p := &Pending{done: make(chan struct{})}
	l.mu.Lock()
	switch {
	case l.err != nil:
		p.err = l.err
	case l.closed:
		p.err = ErrClosed
	default:
		p.data = rec
		l.queue = append(l.queue, p)
		l.size += int64(len(rec))
		l.cond.Signal()
		l.mu.Unlock()
		return p
	}
	l.mu.Unlock()
	close(p.done)
	return p
}

// Sync blocks until everything enqueued before the call is durable.
func (l *Log) Sync() error {
	return l.Enqueue(nil).Wait()
}

// Rotate fsyncs and closes the current segment and opens segment seq.
// The owner must guarantee no concurrent Enqueue (the facade holds its
// snapshot barrier); Rotate drains the queue first regardless.
func (l *Log) Rotate(dir string, seq int) error {
	if err := l.Sync(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	if err := l.f.Close(); err != nil {
		l.err = err
		return err
	}
	if err := l.openSegment(dir, seq); err != nil {
		l.err = err
		return err
	}
	return nil
}

// Close drains the queue, fsyncs and closes the segment, and stops the
// committer. Safe to call once.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return l.err
	}
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	<-l.done

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if err := l.f.Sync(); err != nil && l.err == nil {
			l.err = err
		}
		if err := l.f.Close(); err != nil && l.err == nil {
			l.err = err
		}
		l.f = nil
	}
	return l.err
}

// run is the committer: batch, write, sync, wake.
func (l *Log) run() {
	defer close(l.done)
	l.mu.Lock()
	for {
		for len(l.queue) == 0 && !l.closed {
			l.buf = nil
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		batch := l.queue
		l.queue = nil
		f, err := l.f, l.err
		l.mu.Unlock()

		if err == nil {
			err = writeBatch(f, l.concat(batch), l.opts.Policy)
		}
		if err != nil {
			l.mu.Lock()
			if l.err == nil {
				l.err = err
			}
			l.mu.Unlock()
		}
		for _, p := range batch {
			p.err = err
			close(p.done)
		}
		l.mu.Lock()
	}
}

// concat returns the batch's bytes for one write: a lone record's own
// bytes, as most batches are (a sync in flight is what gathers more),
// else the records copied back to back into the reused buffer.
func (l *Log) concat(batch []*Pending) []byte {
	if len(batch) == 1 {
		return batch[0].data
	}
	l.buf = l.buf[:0]
	for _, p := range batch {
		l.buf = append(l.buf, p.data...)
	}
	return l.buf
}

// writeBatch lands a batch's bytes with one write, then syncs per
// policy. The failpoint sites "wal.write" and "wal.fsync" live here: an
// error directive fails the batch, a torn directive writes only a
// prefix — the injected equivalent of dying mid-write.
func writeBatch(f *os.File, buf []byte, policy FsyncPolicy) error {
	if len(buf) > 0 {
		if cut, ok := failpoint.TornAt("wal.write"); ok {
			if cut > len(buf) {
				cut = len(buf)
			}
			if _, err := f.Write(buf[:cut]); err != nil {
				return err
			}
			f.Sync()
			return fmt.Errorf("wal.write: %w (torn at %d)", failpoint.ErrInjected, cut)
		}
		if err := failpoint.Eval("wal.write"); err != nil {
			return fmt.Errorf("wal.write: %w", err)
		}
		if _, err := f.Write(buf); err != nil {
			return err
		}
	}
	if policy == FsyncOff {
		return nil
	}
	if err := failpoint.Eval("wal.fsync"); err != nil {
		return fmt.Errorf("wal.fsync: %w", err)
	}
	return f.Sync()
}
