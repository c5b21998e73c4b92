// Command pfsim-escape cross-checks the //pfsim:hotpath allocation
// discipline against the compiler's own escape analysis. The hotalloc
// analyzer works on the AST, which is heuristic in both directions: a
// flagged composite literal may in fact stay on the stack, and a
// clean-looking expression may still be decided heap by the compiler.
// This tool parses `go build -a -gcflags=-m` diagnostics ("escapes to
// heap", "moved to heap") and fails when one lands inside the hot
// call-graph closure — the same closure hotalloc computes: functions
// whose doc comment carries //pfsim:hotpath, everything they reach
// (interface dispatch and method sets included), minus functions pruned
// by a doc-level //pfsim:allocok. Line-level //pfsim:allocok directives
// suppress individual diagnostics exactly as they do for hotalloc, so
// one annotation satisfies both layers.
//
// Usage:
//
//	pfsim-escape [-dir d] [-diag file] [packages]
//
// Packages default to ./... resolved from -dir (default "."). -diag
// reads canned compiler diagnostics from a file instead of invoking the
// go command (the unit tests' hook; it also lets CI split the slow
// forced rebuild from the matching). The forced rebuild (-a) is what
// makes the run deterministic: a warm build cache suppresses -m output
// entirely, which would pass vacuously. Exit status is 0 when every
// hot-region escape is annotated, 1 when any is not, and 2 on a usage
// or load error. Naming a package without a //pfsim:hotpath root is a
// usage error: a pattern without "..." that matches a rootless package
// would otherwise be checked vacuously.
package main

import (
	"flag"
	"fmt"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"pfsim/internal/analysis/framework"
)

func main() {
	dir := flag.String("dir", ".", "directory to resolve package patterns from")
	diag := flag.String("diag", "", "read compiler diagnostics from this file instead of running go build -a -gcflags=-m")
	flag.Parse()

	findings, err := run(os.Stdout, *dir, *diag, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfsim-escape:", err)
		os.Exit(2)
	}
	if findings > 0 {
		os.Exit(1)
	}
}

// region is one hot function's line span in a file.
type region struct {
	start, end int
	fn, root   string
}

// run loads the packages, computes the hot regions, and matches the
// compiler's escape diagnostics against them; it returns the number of
// unannotated hot escapes. Split from main for the tests.
func run(w io.Writer, dir, diagFile string, patterns []string) (int, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return 0, err
	}
	pkgs, err := framework.Load(absDir, patterns)
	if err != nil {
		return 0, err
	}

	regions := map[string][]region{}              // absolute filename -> hot spans
	dirsFor := map[string]*framework.Directives{} // absolute filename -> its package's directives
	hotPkgs := 0
	for _, pkg := range pkgs {
		cg := framework.NewCallGraph(pkg.Files, pkg.Types, pkg.Info)
		dirs := framework.NewDirectives(pkg.Fset, pkg.Files)
		hot := hotRegions(pkg, cg)
		if len(hot) > 0 {
			hotPkgs++
		} else if pat := namedBy(absDir, pkg, patterns); pat != "" {
			return 0, fmt.Errorf("no //pfsim:hotpath roots found in %s, named explicitly: nothing in it would be checked", pat)
		}
		for file, rs := range hot {
			regions[file] = append(regions[file], rs...)
			dirsFor[file] = dirs
		}
	}
	if hotPkgs == 0 {
		// No annotated roots in the loaded set is a usage error: the
		// cross-check would pass vacuously, exactly the failure mode the
		// forced rebuild exists to prevent.
		return 0, fmt.Errorf("no //pfsim:hotpath roots found in %s", strings.Join(patterns, " "))
	}

	lines, err := diagnostics(absDir, diagFile, patterns)
	if err != nil {
		return 0, err
	}

	type finding struct {
		file      string
		line, col int
		msg       string
		r         region
	}
	var findings []finding
	for _, dl := range lines {
		m := diagRE.FindStringSubmatch(dl)
		if m == nil {
			continue
		}
		file := filepath.FromSlash(strings.TrimPrefix(m[1], "./"))
		if !filepath.IsAbs(file) {
			file = filepath.Join(absDir, file)
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		r, ok := enclosing(regions[file], line)
		if !ok {
			continue
		}
		if d := dirsFor[file]; d != nil && d.HasAt(file, line, "allocok") {
			continue
		}
		findings = append(findings, finding{file, line, col, m[4], r})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.col < b.col
	})
	for _, f := range findings {
		name := f.file
		if rel, err := filepath.Rel(absDir, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
		fmt.Fprintf(w, "%s:%d:%d: %s inside //pfsim:hotpath region %s (reached from %s); annotate //pfsim:allocok <why> or move the allocation off the hot path\n",
			name, f.line, f.col, f.msg, f.r.fn, f.r.root)
	}
	return len(findings), nil
}

// namedBy returns the pattern that names pkg on its own (a directory or
// import path without "..."), or "" when pkg only matched a wildcard.
func namedBy(absDir string, pkg *framework.Package, patterns []string) string {
	for _, pat := range patterns {
		if strings.Contains(pat, "...") {
			continue
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(absDir, dir)
		}
		if pat == pkg.ImportPath || dir == pkg.Dir {
			return pat
		}
	}
	return ""
}

// diagRE matches the compiler escape diagnostics worth cross-checking.
// "escapes to heap" marks an allocation the compiler decided heap;
// "moved to heap" marks a local variable forced off the stack. Inline
// reports, leak annotations and package headers don't match.
var diagRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

// hotRegions computes one package's hot-closure line spans per file.
func hotRegions(pkg *framework.Package, cg *framework.CallGraph) map[string][]region {
	var roots []*types.Func
	for _, fn := range cg.Funcs() {
		if len(framework.DocDirectives(cg.DeclOf(fn).Doc, "hotpath")) > 0 {
			roots = append(roots, fn)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	prune := func(fn *types.Func) bool {
		d := cg.DeclOf(fn)
		return d != nil && len(framework.DocDirectives(d.Doc, "allocok")) > 0
	}
	reached := cg.Reachable(roots, prune)
	out := map[string][]region{}
	for _, fn := range cg.Funcs() {
		root, ok := reached[fn]
		if !ok {
			continue
		}
		decl := cg.DeclOf(fn)
		start := pkg.Fset.Position(decl.Pos())
		end := pkg.Fset.Position(decl.End())
		out[start.Filename] = append(out[start.Filename], region{
			start: start.Line,
			end:   end.Line,
			fn:    framework.FuncName(fn),
			root:  framework.FuncName(root),
		})
	}
	return out
}

// enclosing finds the hot region covering a diagnostic line.
func enclosing(rs []region, line int) (region, bool) {
	for _, r := range rs {
		if r.start <= line && line <= r.end {
			return r, true
		}
	}
	return region{}, false
}

// diagnostics returns the compiler diagnostic lines: canned from a file
// when diagFile is set, otherwise from a forced rebuild of the patterns
// with -gcflags=-m.
func diagnostics(absDir, diagFile string, patterns []string) ([]string, error) {
	if diagFile != "" {
		b, err := os.ReadFile(diagFile)
		if err != nil {
			return nil, err
		}
		return strings.Split(string(b), "\n"), nil
	}
	args := append([]string{"build", "-a", "-gcflags=-m"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = absDir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	return strings.Split(string(out), "\n"), nil
}
