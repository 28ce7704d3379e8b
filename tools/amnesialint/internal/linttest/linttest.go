// Package linttest is amnesialint's analysistest: it runs analyzers
// over a self-contained fixture module and compares the diagnostics
// against want comments in the fixture source. A want comment marks the
// line a diagnostic must land on:
//
//	err == ErrGone // want senterr "compared with =="
//
// The general form is `// want <analyzer> "<substring>"`, repeated for
// lines carrying several diagnostics. Every diagnostic must match a
// want and every want must be matched, so fixtures pin positives and
// negatives at once: a clean line with no want is an assertion too.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"amnesiadb/tools/amnesialint/analysis"
	"amnesiadb/tools/amnesialint/internal/load"
)

// want is one expected diagnostic: analyzer name plus a message
// substring, anchored to a file line.
type want struct {
	analyzer string
	substr   string
	file     string
	line     int
	matched  bool
}

var (
	wantLineRe = regexp.MustCompile(`//\s*want\s+(.+)$`)
	wantPairRe = regexp.MustCompile(`([a-z]+)\s+"([^"]*)"`)
)

// Run analyzes the fixture module rooted at dir (relative to the test's
// working directory) with the given analyzers and fails the test on any
// mismatch between findings and want comments.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	findings, files, err := analyze(dir, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants, err := parseWants(files)
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range findings {
		if !consume(wants, f) {
			t.Errorf("unexpected diagnostic %s:%d: %s (%s)",
				filepath.Base(f.Pos.Filename), f.Pos.Line, f.Message, f.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("no diagnostic at %s:%d matching %s %q",
				filepath.Base(w.file), w.line, w.analyzer, w.substr)
		}
	}
}

// analyze loads and checks every package of the fixture module and runs
// the analyzers in one session (so cross-package summaries behave
// exactly as in the driver), returning the findings plus the fixture's
// source files.
func analyze(dir string, analyzers []*analysis.Analyzer) ([]analysis.Finding, []string, error) {
	units, targets, err := load.List(dir, "./...")
	if err != nil {
		return nil, nil, err
	}
	checker := load.NewChecker(units)
	session := analysis.NewSession(analyzers)
	var files []string
	// `go list -deps` order lists dependencies first, so summaries are
	// always present before their consumers run.
	for _, u := range targets {
		checked, err := checker.Check(u)
		if err != nil {
			return nil, nil, err
		}
		if err := session.RunPackage(checked.Fset, checked.Files, checked.Pkg, checked.Info); err != nil {
			return nil, nil, err
		}
		for _, name := range u.GoFiles {
			if !filepath.IsAbs(name) {
				name = filepath.Join(u.Dir, name)
			}
			files = append(files, name)
		}
	}
	return session.Findings(), files, nil
}

func parseWants(files []string) ([]*want, error) {
	var wants []*want
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantLineRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pairs := wantPairRe.FindAllStringSubmatch(m[1], -1)
			if len(pairs) == 0 {
				return nil, fmt.Errorf("%s:%d: malformed want comment %q", file, i+1, m[1])
			}
			for _, p := range pairs {
				wants = append(wants, &want{analyzer: p[1], substr: p[2], file: file, line: i + 1})
			}
		}
	}
	return wants, nil
}

// consume marks the first unmatched want satisfied by f, if any.
func consume(wants []*want, f analysis.Finding) bool {
	for _, w := range wants {
		if w.matched || w.file != f.Pos.Filename || w.line != f.Pos.Line {
			continue
		}
		if w.analyzer == f.Analyzer && strings.Contains(f.Message, w.substr) {
			w.matched = true
			return true
		}
	}
	return false
}
