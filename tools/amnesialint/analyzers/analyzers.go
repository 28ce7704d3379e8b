package analyzers

import "amnesiadb/tools/amnesialint/analysis"

// All returns the full amnesialint suite in the order findings are
// reported: only the invariants nothing else enforces. The lock
// hierarchy is internal/lockrank's runtime assertion under `make race`;
// drop safety is the handle scaffold plus TestHandleContract; the
// fsync handshake is handle.mutate's body (docs/LOCKING.md, README).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		GoroutineLife,
		PairFlow,
		WALExhaustive,
		CtxFlow,
		SentErr,
	}
}
