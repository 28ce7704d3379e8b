package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"amnesiadb"
)

// verifier re-asks the server, parses the answers in full and compares
// them with an oracle or an invariant. It runs after the timed phase,
// so its parsing cost is in no metric.
type verifier struct {
	base string
	hc   *http.Client
	db   *amnesiadb.DB
	// seen is the per-statement response fingerprint the timed phases
	// recorded (merged over clients); a verified answer must match it,
	// which extends the check to every response of the run.
	seen   []fingerprint
	checks int
}

// answer is a parsed /query response.
type answer struct {
	Columns []string        `json:"columns"`
	Rows    [][]json.Number `json:"rows"`
	Error   string          `json:"error"`
	fp      fingerprint
}

func (a *answer) int(row, col int) (int64, error) {
	if row >= len(a.Rows) || col >= len(a.Rows[row]) {
		return 0, fmt.Errorf("no cell (%d,%d) in a %d-row answer", row, col, len(a.Rows))
	}
	return strconv.ParseInt(a.Rows[row][col].String(), 10, 64)
}

// query posts one statement and parses the whole response.
func (v *verifier) query(sql string) (*answer, error) {
	resp, err := v.hc.Post(v.base+"/query", "application/json", bytes.NewReader(queryBody(sql)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", sql, resp.StatusCode, bytes.TrimSpace(body))
	}
	a := &answer{fp: fingerprint{n: int64(len(body)), crc: crc32.ChecksumIEEE(body), set: true}}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(a); err != nil {
		return nil, fmt.Errorf("%s: %w", sql, err)
	}
	if a.Error != "" {
		return nil, fmt.Errorf("%s: mid-stream error: %s", sql, a.Error)
	}
	v.checks++
	return a, nil
}

// scalar runs a single-row, single-column statement.
func (v *verifier) scalar(sql string) (int64, error) {
	a, err := v.query(sql)
	if err != nil {
		return 0, err
	}
	if len(a.Rows) != 1 {
		return 0, fmt.Errorf("%s: %d rows, want 1", sql, len(a.Rows))
	}
	if a.Rows[0][0].String() == "null" || a.Rows[0][0] == "" {
		return 0, nil // SUM over an empty set
	}
	return a.int(0, 0)
}

// matchesRun checks a verified answer against what the timed phases saw
// for the same statement.
func (v *verifier) matchesRun(stmt int, a *answer) error {
	if stmt < len(v.seen) && v.seen[stmt].set && v.seen[stmt] != a.fp {
		return fmt.Errorf("statement %d: the timed phase received %d bytes (crc %08x), verification %d bytes (crc %08x)",
			stmt, v.seen[stmt].n, v.seen[stmt].crc, a.fp.n, a.fp.crc)
	}
	return nil
}

// parseRange pulls table, column and bounds back out of a generated
// range statement.
func parseRange(sql string) (table, col string, lo, hi int64, err error) {
	_, head, ok := strings.Cut(sql, " FROM ")
	if !ok {
		return "", "", 0, 0, fmt.Errorf("no FROM in %q", sql)
	}
	var col2 string
	if _, err = fmt.Sscanf(head, "%s WHERE %s >= %d AND %s < %d", &table, &col, &lo, &col2, &hi); err != nil {
		return "", "", 0, 0, fmt.Errorf("%q: %w", sql, err)
	}
	return table, col, lo, hi, nil
}

// verifyScanStream re-runs a sample of the statements the run executed.
// Selects: every row satisfies the predicate, b ascends (rows come back
// in insertion order and b is the row number), and the streamed row
// count equals COUNT(*) over the same range. Aggregates: the answer
// over a range equals the sum of the answers over its two halves.
func verifyScanStream(v *verifier, stmts []string) error {
	// The first and the last executed statement of every slot of the
	// six-statement pattern: statements are generated in pattern order,
	// so a statement's slot is its index modulo the pattern length.
	first := make([]int, len(scanPattern))
	last := make([]int, len(scanPattern))
	for i := range first {
		first[i], last[i] = -1, -1
	}
	for s := range stmts {
		if s < len(v.seen) && v.seen[s].set {
			slot := s % len(scanPattern)
			if first[slot] < 0 {
				first[slot] = s
			}
			last[slot] = s
		}
	}
	for _, s := range append(first, last...) {
		if s < 0 {
			return fmt.Errorf("a slot of the statement pattern was never executed")
		}
		sql := stmts[s]
		table, col, lo, hi, err := parseRange(sql)
		if err != nil {
			return err
		}
		a, err := v.query(sql)
		if err != nil {
			return err
		}
		if err := v.matchesRun(s, a); err != nil {
			return err
		}
		if len(a.Columns) == 2 { // SELECT a, b
			prevB := int64(-1)
			for r := range a.Rows {
				av, err1 := a.int(r, 0)
				bv, err2 := a.int(r, 1)
				if err1 != nil || err2 != nil {
					return fmt.Errorf("%s: row %d does not parse", sql, r)
				}
				if av < lo || av >= hi {
					return fmt.Errorf("%s: row %d has a=%d outside the predicate", sql, r, av)
				}
				if bv <= prevB {
					return fmt.Errorf("%s: row %d has b=%d after b=%d", sql, r, bv, prevB)
				}
				prevB = bv
			}
			n, err := v.scalar(fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s >= %d AND %s < %d", table, col, lo, col, hi))
			if err != nil {
				return err
			}
			if n != int64(len(a.Rows)) {
				return fmt.Errorf("%s: streamed %d rows, COUNT(*) says %d", sql, len(a.Rows), n)
			}
			continue
		}
		whole, err := v.scalar(sql)
		if err != nil {
			return err
		}
		mid := lo + (hi-lo)/2
		agg, _, _ := strings.Cut(sql, " FROM ")
		left, err := v.scalar(fmt.Sprintf("%s FROM %s WHERE %s >= %d AND %s < %d", agg, table, col, lo, col, mid))
		if err != nil {
			return err
		}
		right, err := v.scalar(fmt.Sprintf("%s FROM %s WHERE %s >= %d AND %s < %d", agg, table, col, mid, col, hi))
		if err != nil {
			return err
		}
		if whole != left+right {
			return fmt.Errorf("%s: %d over the range, %d + %d over its halves", sql, whole, left, right)
		}
	}
	return nil
}

// verifyHotSmall checks every one of the statements against an oracle
// computed from the generated slices alone: ids and scores of the rows
// fifo left active.
func verifyHotSmall(v *verifier, stmts []string, keys, id, score []int64) error {
	type row struct{ id, score int64 }
	byID := make([]row, len(id))
	for i := range id {
		byID[i] = row{id[i], score[i]}
	}
	sort.Slice(byID, func(i, j int) bool { return byID[i].id < byID[j].id })
	for j, k := range keys {
		lo := sort.Search(len(byID), func(i int) bool { return byID[i].id >= k })
		hi := sort.Search(len(byID), func(i int) bool { return byID[i].id >= k+hotWidth })
		want := append([]row(nil), byID[lo:hi]...)
		sort.Slice(want, func(a, b int) bool { return want[a].score < want[b].score })

		n, err := v.query(stmts[2*j+1])
		if err != nil {
			return err
		}
		if err := v.matchesRun(2*j+1, n); err != nil {
			return err
		}
		if got, err := n.int(0, 0); err != nil || got != int64(len(want)) {
			return fmt.Errorf("%s: got %d (%v), oracle %d", stmts[2*j+1], got, err, len(want))
		}

		top, err := v.query(stmts[2*j])
		if err != nil {
			return err
		}
		if err := v.matchesRun(2*j, top); err != nil {
			return err
		}
		if len(top.Rows) != min(len(want), 10) {
			return fmt.Errorf("%s: %d rows, oracle %d", stmts[2*j], len(top.Rows), min(len(want), 10))
		}
		for r := range top.Rows {
			gi, err1 := top.int(r, 0)
			gs, err2 := top.int(r, 1)
			if err1 != nil || err2 != nil || gi != want[r].id || gs != want[r].score {
				return fmt.Errorf("%s: row %d is (%d,%d), oracle (%d,%d)", stmts[2*j], r, gi, gs, want[r].id, want[r].score)
			}
		}
	}
	return nil
}

// verifyBudgets checks the invariant ingest under a policy must keep:
// each table holds exactly its budget of active tuples, by the
// library's counters and by COUNT(*) through the server alike.
func verifyBudgets(v *verifier, tables []string, budget int) error {
	for _, name := range tables {
		t, ok := v.db.Table(name)
		if !ok {
			return fmt.Errorf("table %q missing", name)
		}
		if st := t.Stats(); st.Active != budget {
			return fmt.Errorf("table %q holds %d active tuples, budget %d", name, st.Active, budget)
		}
		n, err := v.scalar("SELECT COUNT(*) FROM " + name)
		if err != nil {
			return err
		}
		if n != int64(budget) {
			return fmt.Errorf("table %q: COUNT(*) = %d, budget %d", name, n, budget)
		}
	}
	return nil
}

// verifyTopK checks a few top-k statements against the same range read
// back unordered: the top-k must be the k smallest scores of it, in
// order.
func verifyTopK(v *verifier, table string, keys []int64) error {
	for _, k := range keys {
		all, err := v.query(fmt.Sprintf("SELECT id, score FROM %s WHERE id >= %d AND id < %d", table, k, k+hotWidth))
		if err != nil {
			return err
		}
		scores := make([]int64, len(all.Rows))
		for r := range all.Rows {
			if scores[r], err = all.int(r, 1); err != nil {
				return err
			}
		}
		sort.Slice(scores, func(i, j int) bool { return scores[i] < scores[j] })
		top, err := v.query(fmt.Sprintf("SELECT id, score FROM %s WHERE id >= %d AND id < %d ORDER BY score LIMIT 10", table, k, k+hotWidth))
		if err != nil {
			return err
		}
		if len(top.Rows) != min(len(scores), 10) {
			return fmt.Errorf("top-k at id %d: %d rows of %d qualifying", k, len(top.Rows), len(scores))
		}
		for r := range top.Rows {
			if s, err := top.int(r, 1); err != nil || s != scores[r] {
				return fmt.Errorf("top-k at id %d: rank %d has score %d, want %d", k, r, s, scores[r])
			}
		}
	}
	return nil
}

// tableDigest is what must survive a reopen unchanged.
type tableDigest struct{ count, sum int64 }

// digest reads COUNT and SUM of every checked relation straight from
// the library.
func digest(db *amnesiadb.DB, tables []tableCheck) (map[string]tableDigest, error) {
	out := make(map[string]tableDigest)
	for _, tc := range tables {
		var d tableDigest
		for i, agg := range []string{"COUNT(*)", "SUM(" + tc.col + ")"} {
			res, err := db.Query(fmt.Sprintf("SELECT %s FROM %s", agg, tc.table))
			if err != nil {
				return nil, err
			}
			if len(res.Rows) != 1 {
				return nil, fmt.Errorf("%s of %s: %d rows", agg, tc.table, len(res.Rows))
			}
			if i == 0 {
				d.count = int64(res.Rows[0][0])
			} else {
				d.sum = int64(res.Rows[0][0])
			}
		}
		out[tc.table] = d
	}
	return out, nil
}
