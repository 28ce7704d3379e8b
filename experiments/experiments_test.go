// Package experiments_test holds the checks on the paper's experiment
// tree as a whole: its committed outputs, and the imports that keep it a
// client of the served database.
package experiments_test

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"amnesiadb/experiments/internal/exp"
)

// TestCommittedOutputs regenerates every registered experiment at seed 1
// and compares it with testdata/<id>.txt, so a change that moves a paper
// figure shows up as a diff of that file. Regenerate one with
//
//	go run ./experiments/cmd/amnesiasim -exp <id> -o experiments/testdata/<id>.txt
func TestCommittedOutputs(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded figure runs skipped under the race detector")
	}
	ids := map[string]bool{}
	for _, e := range exp.Registry() {
		ids[e.ID+".txt"] = true
		t.Run(e.ID, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", e.ID+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := exp.Write(t.Context(), &got, e, 1); err != nil {
				t.Fatal(err)
			}
			g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := range max(len(g), len(w)) {
				if i >= len(g) || i >= len(w) || g[i] != w[i] {
					t.Fatalf("output differs from testdata/%s.txt at line %d:\ngot  %q\nwant %q",
						e.ID, i+1, line(g, i), line(w, i))
				}
			}
		})
	}
	files, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !ids[f.Name()] {
			t.Errorf("testdata/%s belongs to no registered experiment", f.Name())
		}
	}
}

// TestHeavyExperimentsRun keeps the heaviest experiments under the race
// detector, where TestCommittedOutputs skips: each has to complete and
// emit a plausible table. Without the detector TestCommittedOutputs
// checks every byte of them.
func TestHeavyExperimentsRun(t *testing.T) {
	if !raceEnabled || testing.Short() {
		t.Skip("run byte for byte by TestCommittedOutputs")
	}
	for _, id := range []string{"fig3b", "fig3x", "agg", "vol", "fig3e"} {
		t.Run(id, func(t *testing.T) {
			e, err := exp.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := e.Run(t.Context(), &buf, 1); err != nil {
				t.Fatal(err)
			}
			if buf.Len() < 100 {
				t.Fatalf("%s produced only %d bytes", id, buf.Len())
			}
		})
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}

// TestImportsOnlyTheFacade keeps the experiment tree's non-test files a
// client of the served database: besides the standard library and their
// own tree they import the amnesiadb facade, internal/xrand and
// internal/compress, never the engine, the table or a strategy, so every
// figure forgets through the facade's own enforcement. Go's internal rule
// keeps the serving code from importing the tree in turn.
func TestImportsOnlyTheFacade(t *testing.T) {
	allowed := map[string]bool{
		"amnesiadb":                   true,
		"amnesiadb/internal/xrand":    true,
		"amnesiadb/internal/compress": true,
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			std := !strings.Contains(strings.Split(p, "/")[0], ".") && !strings.HasPrefix(p, "amnesiadb")
			if !std && !allowed[p] && !strings.HasPrefix(p, "amnesiadb/experiments/") {
				t.Errorf("%s imports %s", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
