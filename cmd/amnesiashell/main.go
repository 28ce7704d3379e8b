// Command amnesiashell is an interactive shell over an amnesiac database.
// It seeds a demo table, lets you query it in the paper's SQL subspace,
// and exposes the amnesia machinery through dot-commands, so the effect
// of forgetting can be watched live.
//
//	$ go run ./cmd/amnesiashell
//	amnesia> SELECT COUNT(*) FROM readings
//	amnesia> .policy readings rot 5000
//	amnesia> .insert readings 10000
//	amnesia> SELECT AVG(value) FROM readings WHERE value < 1000
//	amnesia> .stats readings
//
// Commands: .help, .tables, .stats <table>, .policy <table> <strategy>
// <budget>, .insert <table> <n> (uniform demo data), .precision <table>
// <lo> <hi>, .quit
package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"amnesiadb"
	"amnesiadb/internal/xrand"
)

func main() {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	if _, err := db.CreateTable("readings", "value"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	src := xrand.New(2)
	sh := &shell{db: db, src: src, out: os.Stdout}
	if err := sh.insert("readings", 1000); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(`amnesiadb shell — table "readings" seeded with 1000 uniform values; .help for commands`)

	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("amnesia> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if line == ".quit" || line == ".exit" {
			return
		}
		if err := sh.dispatch(line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

type shell struct {
	db  *amnesiadb.DB
	src *xrand.Source
	out *os.File
}

func (s *shell) dispatch(line string) error {
	if !strings.HasPrefix(line, ".") {
		return s.query(line)
	}
	fields := strings.Fields(line)
	switch fields[0] {
	case ".help":
		fmt.Fprintln(s.out, `SQL:  SELECT col|*|AGG(col) FROM table [WHERE ...] [ORDER BY col] [LIMIT n]
      SELECT a.col, b.col FROM a JOIN b ON a.k = b.k [WHERE ...]
.tables                         list tables
.stats <table>                  tuple counters
.policy <table> <strategy> <n>  set amnesia policy (strategies: `+strings.Join(amnesiadb.Strategies(), " ")+`)
.insert <table> <n>             insert n uniform demo values
.precision <table> <lo> <hi>    PF of the range [lo, hi)
.quit`)
		return nil
	case ".tables":
		for _, r := range s.db.Relations() {
			fmt.Fprintln(s.out, r.Name)
		}
		return nil
	case ".stats":
		if len(fields) != 2 {
			return fmt.Errorf("usage: .stats <table>")
		}
		t, ok := s.db.Table(fields[1])
		if !ok {
			return fmt.Errorf("unknown table %q", fields[1])
		}
		st := t.Stats()
		fmt.Fprintf(s.out, "tuples=%d active=%d forgotten=%d batches=%d cold=%d segments=%d\n",
			st.Tuples, st.Active, st.Forgotten, st.Batches, st.ColdTier, st.Segments)
		return nil
	case ".policy":
		if len(fields) != 4 {
			return fmt.Errorf("usage: .policy <table> <strategy> <budget>")
		}
		t, ok := s.db.Table(fields[1])
		if !ok {
			return fmt.Errorf("unknown table %q", fields[1])
		}
		budget, err := strconv.Atoi(fields[3])
		if err != nil {
			return fmt.Errorf("bad budget %q", fields[3])
		}
		if err := t.SetPolicy(amnesiadb.Policy{Strategy: fields[2], Budget: budget}); err != nil {
			return err
		}
		return t.EnforceBudget()
	case ".insert":
		if len(fields) != 3 {
			return fmt.Errorf("usage: .insert <table> <n>")
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad count %q", fields[2])
		}
		return s.insert(fields[1], n)
	case ".precision":
		if len(fields) != 4 {
			return fmt.Errorf("usage: .precision <table> <lo> <hi>")
		}
		t, ok := s.db.Table(fields[1])
		if !ok {
			return fmt.Errorf("unknown table %q", fields[1])
		}
		lo, err1 := strconv.ParseInt(fields[2], 10, 64)
		hi, err2 := strconv.ParseInt(fields[3], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad bounds")
		}
		rf, mf, pf, err := t.Precision(context.Background(), t.Columns()[0], amnesiadb.Range(lo, hi))
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "PF=%.4f (returned %d, missed %d)\n", pf, rf, mf)
		return nil
	default:
		return fmt.Errorf("unknown command %s (try .help)", fields[0])
	}
}

func (s *shell) insert(tableName string, n int) error {
	t, ok := s.db.Table(tableName)
	if !ok {
		return fmt.Errorf("unknown table %q", tableName)
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = s.src.Int63n(1_000_000)
	}
	return t.Insert(map[string][]int64{t.Columns()[0]: vals})
}

func (s *shell) query(q string) error {
	res, err := s.db.Query(q)
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			switch {
			case math.IsNaN(v):
				// NULL-style cell: an empty-set aggregate.
				parts[i] = "NULL"
			case res.Ints[i]:
				parts[i] = strconv.FormatInt(int64(v), 10)
			default:
				parts[i] = strconv.FormatFloat(v, 'f', 4, 64)
			}
		}
		fmt.Fprintln(s.out, strings.Join(parts, "\t"))
	}
	fmt.Fprintf(s.out, "(%d rows)\n", len(res.Rows))
	return nil
}
