// Package quota exercises the governed-charge rules: release on every
// path, deferred release, amount-matched pairing, ownership handoff
// (struct stamp, closure capture, call argument), error-branch
// exemption, and discarded Acquire errors.
package quota

import "fixture/internal/engine/governor"

// buf stands in for SelChunk: a buffer that carries its quota charge to
// a downstream recycler.
type buf struct {
	quota *governor.Quota
	rows  []int64
}

// goodDefer charges and settles through a defer: every exit path
// balances the ledger.
func goodDefer(q *governor.Quota, n int64) error {
	if err := q.Acquire(n); err != nil {
		return err
	}
	defer q.Release(n)
	return work()
}

// goodInline releases on the fall-through; the error branch never
// charged, so its bare return is exempt.
func goodInline(q *governor.Quota, n int64) error {
	if err := q.Acquire(n); err != nil {
		return err
	}
	if err := work(); err != nil {
		q.Release(n)
		return err
	}
	q.Release(n)
	return nil
}

// leakEarlyReturn forgets the release on the early-return path.
func leakEarlyReturn(q *governor.Quota, n int64, fast bool) error {
	if err := q.Acquire(n); err != nil { // want pairflow "without a matching Release"
		return err
	}
	if fast {
		return nil
	}
	q.Release(n)
	return nil
}

// leakNoRelease never settles the charge at all.
func leakNoRelease(q *governor.Quota, n int64) error {
	if err := q.Acquire(n); err != nil { // want pairflow "without a matching Release"
		return err
	}
	return work()
}

// branchedRelease settles in both arms: exactly one release per path.
func branchedRelease(q *governor.Quota, n int64, fast bool) {
	if err := q.Acquire(n); err != nil {
		return
	}
	if fast {
		q.Release(n)
	} else {
		q.Release(n)
	}
}

// leakOneOfTwo pairs charges and releases by amount identifier:
// releasing outBytes does not settle flatBytes, and the second
// acquire's error path returns with flatBytes still outstanding.
func leakOneOfTwo(q *governor.Quota, flatBytes, outBytes int64) error {
	if err := q.Acquire(flatBytes); err != nil { // want pairflow "without a matching Release"
		return err
	}
	if err := q.Acquire(outBytes); err != nil {
		return err
	}
	q.Release(outBytes)
	return nil
}

// twoChargesBalanced is the clean variant: the transient output charge
// settles inline, the flat charge through its defer.
func twoChargesBalanced(q *governor.Quota, flatBytes, outBytes int64) error {
	if err := q.Acquire(flatBytes); err != nil {
		return err
	}
	defer q.Release(flatBytes)
	if err := q.Acquire(outBytes); err != nil {
		return err
	}
	q.Release(outBytes)
	return nil
}

// handoffStamp transfers the charge with the buffer that carries it —
// the SelChunk pattern; the downstream recycler settles it.
func handoffStamp(q *governor.Quota, n int64) *buf {
	if err := q.Acquire(n); err != nil {
		return nil
	}
	return &buf{quota: q, rows: make([]int64, n)}
}

// handoffClosure hands the charge to a goroutine that settles it.
func handoffClosure(q *governor.Quota, n int64, done chan struct{}) error {
	if err := q.Acquire(n); err != nil {
		return err
	}
	go func() {
		<-done
		q.Release(n)
	}()
	return nil
}

// handoffCall passes the quota (and its charge) to another function.
func handoffCall(q *governor.Quota, n int64) error {
	if err := q.Acquire(n); err != nil {
		return err
	}
	settle(q, n)
	return nil
}

func settle(q *governor.Quota, n int64) { q.Release(n) }

// discarded ignores Acquire's error: the kill latch is lost.
func discarded(q *governor.Quota, n int64) {
	q.Acquire(n) // want pairflow "discarded"
	q.Release(n)
}

// discardedBlank is the underscore variant.
func discardedBlank(q *governor.Quota, n int64) {
	_ = q.Acquire(n) // want pairflow "discarded"
	q.Release(n)
}

// separateCheck is the two-statement checked form; its error branch is
// exempt just like the init form.
func separateCheck(q *governor.Quota, n int64) error {
	err := q.Acquire(n)
	if err != nil {
		return err
	}
	defer q.Release(n)
	return nil
}

// loopCharge charges per iteration and settles before the back edge.
func loopCharge(q *governor.Quota, n int64, k int) error {
	for i := 0; i < k; i++ {
		if err := q.Acquire(n); err != nil {
			return err
		}
		if err := work(); err != nil {
			q.Release(n)
			return err
		}
		q.Release(n)
	}
	return nil
}

// loopLeak continues past the release on the even iterations.
func loopLeak(q *governor.Quota, n int64, k int) error {
	for i := 0; i < k; i++ {
		if err := q.Acquire(n); err != nil { // want pairflow "without a matching Release"
			return err
		}
		if i%2 == 0 {
			continue
		}
		q.Release(n)
	}
	return nil
}

// litCharge mirrors the pipeline produce closure: the literal is its
// own unit, charging per chunk and stamping the quota into the buffer
// that carries the charge out.
func litCharge(q *governor.Quota, n int64, k int) func() ([]buf, error) {
	return func() ([]buf, error) {
		out := make([]buf, 0, k)
		for i := 0; i < k; i++ {
			if err := q.Acquire(n); err != nil {
				return nil, err
			}
			out = append(out, buf{quota: q})
		}
		return out, nil
	}
}

// litLeak is the closure variant of a missing release.
func litLeak(q *governor.Quota, n int64) func() error {
	return func() error {
		if err := q.Acquire(n); err != nil { // want pairflow "without a matching Release"
			return err
		}
		return work()
	}
}

func work() error { return nil }

var (
	_ = goodDefer
	_ = goodInline
	_ = leakEarlyReturn
	_ = leakNoRelease
	_ = branchedRelease
	_ = leakOneOfTwo
	_ = twoChargesBalanced
	_ = handoffStamp
	_ = handoffClosure
	_ = handoffCall
	_ = discarded
	_ = discardedBlank
	_ = separateCheck
	_ = loopCharge
	_ = loopLeak
	_ = litCharge
	_ = litLeak
)
