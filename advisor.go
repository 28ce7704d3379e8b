package amnesiadb

import (
	"slices"

	"amnesiadb/internal/advisor"
	"amnesiadb/internal/engine"
)

// Advisor observes a table's query stream and recommends an amnesia
// policy — the §2.2 statistics-collection programme. Create one with
// Table.NewAdvisor, route queries through its Select/Aggregate wrappers,
// then call Advise.
type Advisor struct {
	t   *Table
	col string
	c   *advisor.Collector
}

// NewAdvisor returns an advisor observing queries against column col.
func (t *Table) NewAdvisor(col string) (*Advisor, error) {
	var c *advisor.Collector
	err := t.exclusive(func() (err error) {
		c, err = advisor.NewCollector(t.tbl, col)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Advisor{t: t, col: col, c: c}, nil
}

// Select runs the query through the table and records it.
func (a *Advisor) Select(p Pred) (res *Result, err error) {
	err = a.t.exclusive(func() error {
		r, err := a.t.ex.Select(a.col, p.expr(), engine.ScanActive)
		if err != nil {
			return err
		}
		lo, hi, _ := p.expr().Bounds()
		a.c.ObserveRange(lo, hi, r.Rows)
		res = &Result{Rows: r.Rows, Values: r.Values}
		return nil
	})
	return res, err
}

// Aggregate runs the aggregate through the table and records it. The
// collector needs every contributing position, so this is a select
// folded here: it touches the same rows an engine aggregate would, once.
func (a *Advisor) Aggregate(p Pred) (agg Agg, err error) {
	err = a.t.exclusive(func() error {
		res, err := a.t.ex.Select(a.col, p.expr(), engine.ScanActive)
		if err != nil {
			return err
		}
		if len(res.Rows) == 0 {
			return ErrNoRows
		}
		a.c.ObserveAggregate(res.Rows)
		agg = Agg{Count: len(res.Values), Min: slices.Min(res.Values), Max: slices.Max(res.Values)}
		for _, v := range res.Values {
			agg.Sum += v
		}
		agg.Avg = float64(agg.Sum) / float64(agg.Count)
		return nil
	})
	return agg, err
}

// Advice is the advisor's recommendation.
type Advice struct {
	// Strategy is the recommended policy strategy name.
	Strategy string
	// Reason explains the choice in one sentence.
	Reason string
	// Budget estimates the smallest affordable active-tuple budget for
	// the target precision.
	Budget int
	// MeanSelectivity and FreshFocus summarise the observed workload.
	MeanSelectivity float64
	FreshFocus      float64
}

// Advise analyses the observed workload for the target precision
// (0 < target <= 1) and returns a policy recommendation.
func (a *Advisor) Advise(target float64) (adv Advice, err error) {
	err = a.t.exclusive(func() error {
		r, err := a.c.Analyze(target)
		if err != nil {
			return err
		}
		adv = Advice{
			Strategy:        r.Strategy,
			Reason:          r.Reason,
			Budget:          r.AffordableBudget,
			MeanSelectivity: r.MeanSelectivity,
			FreshFocus:      r.FreshFocus,
		}
		return nil
	})
	return adv, err
}
