package analyzers

import (
	"testing"

	"amnesiadb/tools/amnesialint/internal/linttest"
)

// Each fixture under testdata/src is a self-contained module carrying
// positive cases (want comments) and negative cases (clean lines the
// harness asserts stay silent).

// PairFlow carries one spec per paired resource; each resource keeps
// its own fixture, and running the whole analyzer over each also pins
// that the other spec stays silent there.

func TestGovFlow(t *testing.T) {
	linttest.Run(t, "testdata/src/govflow", PairFlow)
}

func TestRecycleFlow(t *testing.T) {
	linttest.Run(t, "testdata/src/recycleflow", PairFlow)
}

func TestGoroutineLife(t *testing.T) {
	linttest.Run(t, "testdata/src/goroutinelife", GoroutineLife)
}

func TestWALExhaustive(t *testing.T) {
	linttest.Run(t, "testdata/src/walexhaustive", WALExhaustive)
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, "testdata/src/ctxflow", CtxFlow)
}

func TestSentErr(t *testing.T) {
	linttest.Run(t, "testdata/src/senterr", SentErr)
}
