// Package analysis is the repo's stdlib-only static-analysis framework:
// the picolint analyzers that enforce the determinism, tracing and
// error-handling invariants the reproduction depends on (see DESIGN.md
// §"Determinism policy").
//
// The framework deliberately avoids golang.org/x/tools: packages are
// loaded with go/parser, type-checked with go/types (stdlib sources come
// from the source importer), and each Analyzer is a pure function from a
// type-checked package to diagnostics. Findings can be suppressed line
// by line with a justified directive:
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. A directive
// without a reason does not suppress anything — it is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in findings and lint:ignore directives.
	Name string
	// Doc is the one-line description printed by picolint -list.
	Doc string
	// Run inspects the package and returns raw diagnostics. Suppression
	// is applied by the framework, not by the analyzer.
	Run func(p *Pass) []Diagnostic
	// WholeModule marks a check that only the whole module can decide:
	// it runs on a whole-module Program and on the analyzer fixtures,
	// and is skipped elsewhere.
	WholeModule bool
}

// Pass is the per-package input handed to each analyzer.
type Pass struct {
	Fset       *token.FileSet
	ImportPath string
	Dir        string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// Prog is the whole-program context (call graph + summaries) shared
	// by every pass of one run; the interprocedural analyzers read it.
	Prog *Program
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the registered analyzers in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Detrange, Seedrand, Spanend, Dropperr, Tracenil, Poolput, Metricname,
		Dettaint, Lockcheck, Leakcheck, Hotalloc, Deadexport,
	}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers map[string]bool
	reason    string
	used      bool
}

// RunProgram applies the analyzers to one package of a pre-built
// program, filters suppressed findings, and returns the rest
// position-sorted. Malformed or unused lint:ignore directives are
// reported as findings of the pseudo-analyzer "lint"; an unused one
// only when every analyzer it names ran on the package.
func RunProgram(prog *Program, analyzers []*Analyzer, pkg *Package) []Diagnostic {
	pass := &Pass{
		Fset:       pkg.Fset,
		ImportPath: pkg.ImportPath,
		Dir:        pkg.Dir,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		Info:       pkg.Info,
		Prog:       prog,
	}
	var raw []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		if a.WholeModule && !prog.WholeModule && !isTestdataPkg(pkg.ImportPath) {
			continue
		}
		ran[a.Name] = true
		raw = append(raw, a.Run(pass)...)
	}

	directives, bad := collectDirectives(pkg)
	// index: filename -> line -> directives covering that line.
	idx := map[string]map[int][]*ignoreDirective{}
	for _, d := range directives {
		m := idx[d.pos.Filename]
		if m == nil {
			m = map[int][]*ignoreDirective{}
			idx[d.pos.Filename] = m
		}
		// A directive covers its own line and the line below it.
		m[d.pos.Line] = append(m[d.pos.Line], d)
		m[d.pos.Line+1] = append(m[d.pos.Line+1], d)
	}

	var out []Diagnostic
	for _, d := range raw {
		suppressed := false
		for _, dir := range idx[d.Pos.Filename][d.Pos.Line] {
			if dir.analyzers[d.Analyzer] {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	out = append(out, bad...)
	for _, dir := range directives {
		if !dir.used && dir.judged(ran) {
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "lint",
				Message:  "lint:ignore directive suppresses nothing (stale or misplaced)",
			})
		}
	}
	sortDiagnostics(out)
	return out
}

// judged reports whether every registered analyzer the directive names
// ran. Only then does an unused directive suppress nothing: on a subset
// run it may cover a finding of an analyzer that did not run. A name no
// analyzer has can never suppress anything.
func (d *ignoreDirective) judged(ran map[string]bool) bool {
	for _, a := range All() {
		if d.analyzers[a.Name] && !ran[a.Name] {
			return false
		}
	}
	return true
}

// collectDirectives parses every lint:ignore comment in the package,
// returning well-formed directives and diagnostics for malformed ones.
func collectDirectives(pkg *Package) ([]*ignoreDirective, []Diagnostic) {
	var dirs []*ignoreDirective
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Directives are exact: "//lint:ignore" with no space, so
				// prose mentioning the directive never triggers it.
				if !strings.HasPrefix(c.Text, "//lint:ignore") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, "//"))
				if fields[0] != "lint:ignore" {
					continue
				}
				if len(fields) < 3 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "lint:ignore needs an analyzer name and a justification: //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				names := map[string]bool{}
				for _, n := range strings.Split(fields[1], ",") {
					names[n] = true
				}
				dirs = append(dirs, &ignoreDirective{
					pos:       pos,
					analyzers: names,
					reason:    strings.Join(fields[2:], " "),
				})
			}
		}
	}
	return dirs, bad
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
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
	})
}

// inspect walks the files of a pass keeping an ancestor stack; fn
// receives each node with stack[len(stack)-1] == n. Returning false
// skips the node's children.
func inspect(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if !fn(n, stack) {
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		})
	}
}

// isTestdataPkg reports whether the package is an analyzer fixture.
// Fixture packages opt into every analyzer's scope so each check can be
// exercised regardless of its package allowlist.
func isTestdataPkg(importPath string) bool {
	return strings.Contains(importPath, "/analysis/testdata/")
}

// pkgPathOf returns the import path of the package owning obj, or "".
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}
