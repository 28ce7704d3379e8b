// Command amnesialint runs the repo's invariant analyzers over package
// patterns: `go run ./tools/amnesialint/cmd ./...`. Packages are
// analyzed in parallel (GOMAXPROCS workers), dependency-ordered, with
// cross-package summaries shared in-process. Findings print as
// `file:line:col: message (analyzer)`.
//
// Flags:
//
//	-audit          print the //lint:ignore inventory as a markdown table
//	-auditcheck F   fail unless F's lint-audit section matches the tree
//	-budget D       exit 3 when the run exceeds wall-time budget D
//
// Exit status is 1 when any finding survives suppression (or the audit
// drifted), 2 on internal error, 3 on budget breach, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"amnesiadb/tools/amnesialint/analysis"
	"amnesiadb/tools/amnesialint/analyzers"
	"amnesiadb/tools/amnesialint/internal/load"
)

func main() {
	audit := flag.Bool("audit", false, "print the //lint:ignore inventory as a markdown table")
	auditCheck := flag.String("auditcheck", "", "fail unless the file's lint-audit section matches the tree")
	budget := flag.Duration("budget", 0, "exit 3 when the run exceeds this wall-time budget")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *audit || *auditCheck != "" {
		runAudit(".", patterns, *auditCheck)
		return
	}

	start := time.Now()
	findings, pkgs, err := check(".", patterns)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	fmt.Fprintf(os.Stderr, "amnesialint: %d packages in %s (parallelism %d)\n",
		pkgs, elapsed.Round(time.Millisecond), runtime.GOMAXPROCS(0))
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(os.Stderr, "amnesialint: run took %s, over the %s budget\n", elapsed.Round(time.Millisecond), *budget)
		os.Exit(3)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// Check runs the full suite over the patterns rooted at dir and returns
// the surviving findings. Exposed for the tree-cleanliness test.
func Check(dir string, patterns ...string) ([]analysis.Finding, error) {
	findings, _, err := check(dir, patterns)
	return findings, err
}

// check loads the patterns and analyzes every target package (and
// summarizes in-module dependencies) in parallel dependency order, one
// worker per GOMAXPROCS.
func check(dir string, patterns []string) ([]analysis.Finding, int, error) {
	units, targets, err := load.List(dir, patterns...)
	if err != nil {
		return nil, 0, err
	}
	checker := load.NewChecker(units)
	session := analysis.NewSession(analyzers.All())

	// Work set: every listed non-standard unit with sources — targets
	// get the analyzers, in-module dependencies contribute summaries.
	isTarget := map[string]bool{}
	for _, u := range targets {
		isTarget[u.ImportPath] = true
	}
	work := map[string]*load.Unit{}
	for path, u := range units {
		if u.Standard || len(u.GoFiles) == 0 {
			continue
		}
		if u.Error != nil && u.Error.Err != "" && !isTarget[path] {
			continue
		}
		work[path] = u
	}

	// Dependency counts restricted to the work set; a unit is ready when
	// every in-set import has been processed.
	waiting := map[string]int{}
	dependents := map[string][]string{}
	for path, u := range work {
		n := 0
		for _, imp := range u.Imports {
			if _, ok := work[imp]; ok && imp != path {
				n++
				dependents[imp] = append(dependents[imp], path)
			}
		}
		waiting[path] = n
	}

	par := runtime.GOMAXPROCS(0)
	var (
		mu       sync.Mutex
		firstErr error
		ready    = make(chan *load.Unit, len(work))
		wg       sync.WaitGroup
		pending  = len(work)
	)
	for path, n := range waiting {
		if n == 0 {
			ready <- work[path]
		}
	}
	done := func(path string) {
		mu.Lock()
		defer mu.Unlock()
		pending--
		for _, dep := range dependents[path] {
			waiting[dep]--
			if waiting[dep] == 0 {
				ready <- work[dep]
			}
		}
		if pending == 0 {
			close(ready)
		}
	}
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range ready {
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if !stop {
					if err := analyzeUnit(session, checker, u, isTarget[u.ImportPath]); err != nil {
						fail(err)
					}
				}
				done(u.ImportPath)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, 0, firstErr
	}
	return session.Findings(), len(targets), nil
}

func analyzeUnit(session *analysis.Session, checker *load.Checker, u *load.Unit, target bool) error {
	checked, err := checker.Check(u)
	if err != nil {
		if !target {
			return nil // a dependency that cannot re-check from source just loses its summaries
		}
		return err
	}
	if target {
		return session.RunPackage(checked.Fset, checked.Files, checked.Pkg, checked.Info)
	}
	session.Summarize(checked.Fset, checked.Files, checked.Pkg, checked.Info)
	return nil
}

// ---- suppression audit ----

const (
	auditBegin = "<!-- lint-audit:begin -->"
	auditEnd   = "<!-- lint-audit:end -->"
)

// runAudit prints (or verifies) the inventory of //lint:ignore sites.
func runAudit(dir string, patterns []string, checkFile string) {
	table, err := AuditTable(dir, patterns...)
	if err != nil {
		fatal(err)
	}
	if checkFile == "" {
		fmt.Print(table)
		return
	}
	data, err := os.ReadFile(checkFile)
	if err != nil {
		fatal(err)
	}
	committed, ok := between(string(data), auditBegin, auditEnd)
	if !ok {
		fmt.Fprintf(os.Stderr, "amnesialint: %s has no %s/%s section\n", checkFile, auditBegin, auditEnd)
		os.Exit(1)
	}
	if strings.TrimSpace(committed) != strings.TrimSpace(table) {
		fmt.Fprintf(os.Stderr, "amnesialint: suppression audit in %s is stale; regenerate with `go run ./tools/amnesialint/cmd -audit ./...` and paste between the markers\n", checkFile)
		fmt.Fprintf(os.Stderr, "--- expected ---\n%s", table)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "amnesialint: suppression audit in %s is up to date\n", checkFile)
}

func between(s, begin, end string) (string, bool) {
	i := strings.Index(s, begin)
	if i < 0 {
		return "", false
	}
	s = s[i+len(begin):]
	j := strings.Index(s, end)
	if j < 0 {
		return "", false
	}
	return s[:j], true
}

// AuditTable renders the tree's //lint:ignore inventory as a markdown
// table, one row per (file, analyzer, reason), with a site count. Rows
// carry no line numbers so the committed table survives unrelated
// edits. Exposed for the audit drift test.
func AuditTable(dir string, patterns ...string) (string, error) {
	_, targets, err := load.List(dir, patterns...)
	if err != nil {
		return "", err
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	type key struct{ file, analyzer, reason string }
	count := map[key]int{}
	fset := token.NewFileSet()
	for _, u := range targets {
		for _, name := range u.GoFiles {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(u.Dir, name)
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return "", err
			}
			for _, sup := range analysis.ScanSuppressions(fset, []*ast.File{f}) {
				rel, err := filepath.Rel(absDir, sup.File)
				if err != nil {
					rel = sup.File
				}
				for _, a := range strings.Split(sup.Analyzers, ",") {
					count[key{filepath.ToSlash(rel), a, sup.Reason}]++
				}
			}
		}
	}
	keys := make([]key, 0, len(count))
	for k := range count {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.analyzer != b.analyzer {
			return a.analyzer < b.analyzer
		}
		return a.reason < b.reason
	})
	var sb strings.Builder
	sb.WriteString("| File | Analyzer | Sites | Reason |\n")
	sb.WriteString("|---|---|---|---|\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "| `%s` | %s | %d | %s |\n", k.file, k.analyzer, count[k], k.reason)
	}
	return sb.String(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amnesialint:", err)
	os.Exit(2)
}
