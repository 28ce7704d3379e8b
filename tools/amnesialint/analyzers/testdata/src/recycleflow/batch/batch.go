// Package batch exercises the path-sensitive batch rules: leaks, clean
// releases, double recycles (including through aliases and loops),
// use-after-recycle across branch merges, and ownership-transferring
// escapes.
package batch

import "fixture/internal/engine"

// leak never returns its batch to the pool and never escapes it.
func leak(n int) int {
	b := engine.GetBatch() // want pairflow "never returned to the pool"
	if n > len(b.Sel) {
		return 0
	}
	return len(b.Val)
}

// good releases on every path via defer.
func good() int {
	b := engine.GetBatch()
	defer engine.PutBatch(b)
	return len(b.Sel)
}

// recycled counts as released through RecycleChunk.
func recycled() {
	b := engine.GetBatch()
	engine.RecycleChunk(b)
}

// double returns the same batch to the pool twice on one path.
func double() {
	b := engine.GetBatch()
	engine.PutBatch(b)
	engine.PutBatch(b) // want pairflow "already be recycled"
}

// escape hands ownership to the caller; the pool return is their job.
func escape() *engine.Batch {
	b := engine.GetBatch()
	return b
}

// branches releases in both arms — mutually exclusive paths, so this is
// exactly-once, not a double recycle.
func branches(fast bool) {
	b := engine.GetBatch()
	if fast {
		engine.PutBatch(b)
	} else {
		engine.PutBatch(b)
	}
}

// branchThenUse recycles on one branch and uses the batch after the
// merge: the recycled state flows around the branch.
func branchThenUse(fast bool) int {
	b := engine.GetBatch()
	if fast {
		engine.PutBatch(b)
	}
	return len(b.Sel) // want pairflow "used after being recycled"
}

// branchReturnThenUse is the clean variant: the recycling branch
// returns, so the recycled state never reaches the use.
func branchReturnThenUse(fast bool) int {
	b := engine.GetBatch()
	if fast {
		engine.PutBatch(b)
		return 0
	}
	n := len(b.Sel)
	engine.PutBatch(b)
	return n
}

// aliasDouble recycles the same batch through two names.
func aliasDouble() {
	b := engine.GetBatch()
	c := b
	engine.PutBatch(b)
	engine.PutBatch(c) // want pairflow "already be recycled"
}

// aliasUse reads through an alias after the original was recycled.
func aliasUse() int {
	b := engine.GetBatch()
	c := b
	engine.PutBatch(b)
	return len(c.Sel) // want pairflow "used after being recycled"
}

// loopReacquire gets a fresh batch each iteration; the recycle at the
// bottom targets the current iteration's batch, not a stale one.
func loopReacquire(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		b := engine.GetBatch()
		total += len(b.Sel)
		engine.PutBatch(b)
	}
	return total
}

// loopRecycleNoReacquire recycles a pre-loop batch inside the loop: the
// second iteration recycles an already-recycled batch.
func loopRecycleNoReacquire(n int) {
	b := engine.GetBatch()
	for i := 0; i < n; i++ {
		engine.PutBatch(b) // want pairflow "already be recycled"
	}
}

// deferPlusInline double-recycles on the path where done is true: once
// inline, once at exit through the defer.
func deferPlusInline(done bool) {
	b := engine.GetBatch()
	defer engine.PutBatch(b) // want pairflow "already be recycled"
	if done {
		engine.PutBatch(b)
	}
}

// handoff passes the batch to another call: ownership transfers, later
// silence is correct even without a recycle here.
func handoff() {
	b := engine.GetBatch()
	consume(b)
}

func consume(*engine.Batch) {}

// wrapperGet returns a fresh pooled batch; summaries mark it a source,
// so wrapped acquisitions are tracked like direct ones.
func wrapperGet() *engine.Batch {
	return engine.GetBatch()
}

// wrapperPut recycles its parameter; summaries mark it a sink.
func wrapperPut(b *engine.Batch) {
	engine.PutBatch(b)
}

// viaWrappers uses a wrapper-recycled batch on one path.
func viaWrappers(fast bool) int {
	b := wrapperGet()
	n := len(b.Sel)
	wrapperPut(b)
	if fast {
		return n
	}
	return len(b.Val) // want pairflow "used after being recycled"
}

// cleanWrappers balances the wrapper source with the wrapper sink.
func cleanWrappers() {
	b := wrapperGet()
	wrapperPut(b)
}

var (
	_ = leak
	_ = good
	_ = recycled
	_ = double
	_ = escape
	_ = branches
	_ = branchThenUse
	_ = branchReturnThenUse
	_ = aliasDouble
	_ = aliasUse
	_ = loopReacquire
	_ = loopRecycleNoReacquire
	_ = deferPlusInline
	_ = handoff
	_ = viaWrappers
	_ = cleanWrappers
)
