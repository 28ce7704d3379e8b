// Package analysis is a minimal, dependency-free take on the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package and reports findings through its Pass. The
// repo cannot vendor x/tools, so amnesialint carries just the slice of
// the API its analyzers need; the shapes match upstream so the
// analyzers could migrate to the real framework wholesale.
//
// Beyond the per-package shape, a Session threads cross-package state:
// packages run in dependency order, and each one's function summaries
// (goroutine and pooled-batch shape bits) join a shared
// summary.Program before its analyzers run, so a check sees its
// callees in other packages.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"sync"

	"amnesiadb/tools/amnesialint/analysis/summary"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore comments. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph invariant statement shown by `amnesialint help`.
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// A Pass hands one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Prog holds the summaries of this package and of every package
	// analyzed before it.
	Prog *summary.Program

	report func(analyzer string, pos token.Pos, msg string)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(p.Analyzer.Name, pos, fmt.Sprintf(format, args...))
}

// InTestFile reports whether pos lies in a _test.go file. The
// invariants amnesialint enforces are production-path rules; tests get
// to break them (constructing torn WALs, comparing sentinels for
// identity, using context.Background freely).
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// A Finding is one reported diagnostic, at a printable position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// ignoreRe matches an audited suppression: //lint:ignore <analyzers> <reason>.
// <analyzers> is a comma-separated list of analyzer names or "all"; the
// reason is mandatory — an unexplained suppression is itself reported.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s*(.*)$`)

// A Suppression is one //lint:ignore site. It covers its own line and
// the next. Exported so the -audit mode can inventory the tree's
// suppressions with the same parser the filter uses.
type Suppression struct {
	File      string
	Line      int
	Analyzers string // comma-separated names, or "all"
	Reason    string

	pos token.Pos
}

// ScanSuppressions extracts every suppression comment from the files.
func ScanSuppressions(fset *token.FileSet, files []*ast.File) []Suppression {
	var out []Suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, Suppression{
					File:      pos.Filename,
					Line:      pos.Line,
					Analyzers: m[1],
					Reason:    strings.TrimSpace(m[2]),
					pos:       c.Pos(),
				})
			}
		}
	}
	return out
}

func matchesAnalyzer(list, name string) bool {
	for _, n := range strings.Split(list, ",") {
		if n == name || n == "all" {
			return true
		}
	}
	return false
}

// A Session runs the suite over many packages and accumulates their
// findings. Safe for concurrent RunPackage calls as long as the caller
// respects dependency order (a package runs only after its in-module
// dependencies have).
type Session struct {
	Analyzers []*Analyzer
	Prog      *summary.Program

	mu       sync.Mutex
	findings []Finding
}

func NewSession(analyzers []*Analyzer) *Session {
	return &Session{Analyzers: analyzers, Prog: summary.NewProgram()}
}

// Summarize registers a package's summaries without running the
// analyzers: the driver's pass over in-module dependencies outside the
// requested patterns.
func (s *Session) Summarize(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) {
	s.Prog.Add(summary.Build(fset, files, pkg, info, s.Prog))
}

// RunPackage summarizes one type-checked package, runs every analyzer
// over it, and folds the surviving findings into the session.
func (s *Session) RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) error {
	s.Summarize(fset, files, pkg, info)

	sups := ScanSuppressions(fset, files)
	var pkgFindings []Finding
	add := func(analyzer string, p token.Pos, msg string) {
		pos := fset.Position(p)
		if !suppressed(sups, pos.Filename, pos.Line, analyzer) {
			pkgFindings = append(pkgFindings, Finding{Analyzer: analyzer, Pos: pos, Message: msg})
		}
	}
	for _, a := range s.Analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, Prog: s.Prog, report: add}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("%s: %v", a.Name, err)
		}
	}

	// A suppression without a reason defeats the audit trail; flag it
	// unconditionally (it cannot suppress itself).
	for _, sp := range sups {
		if sp.Reason == "" {
			pkgFindings = append(pkgFindings, Finding{
				Analyzer: "suppress",
				Pos:      fset.Position(sp.pos),
				Message:  "lint:ignore needs a reason: //lint:ignore <analyzer> <why this is safe>",
			})
		}
	}

	s.mu.Lock()
	s.findings = append(s.findings, pkgFindings...)
	s.mu.Unlock()
	return nil
}

// Findings returns every session finding, sorted by position.
func (s *Session) Findings() []Finding {
	s.mu.Lock()
	out := append([]Finding(nil), s.findings...)
	s.mu.Unlock()
	sortFindings(out)
	return out
}

func suppressed(sups []Suppression, file string, line int, analyzer string) bool {
	for _, sp := range sups {
		if sp.File != file {
			continue
		}
		if line != sp.Line && line != sp.Line+1 {
			continue
		}
		if matchesAnalyzer(sp.Analyzers, analyzer) {
			return true
		}
	}
	return false
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool { return less(fs[i], fs[j]) })
}

func less(a, b Finding) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}
