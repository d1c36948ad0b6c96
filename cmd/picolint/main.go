// Command picolint runs the repo's static-analysis suite — the twelve
// determinism / tracing / error-handling / concurrency / dead-export
// invariants in internal/analysis — over module packages, with the
// interprocedural call-graph layer built once per run and shared by
// every analyzer. deadexport judges only a whole-module (./...) run.
//
//	picolint ./...                          lint the whole module
//	picolint ./internal/core ./internal/eval
//	picolint -analyzers dettaint,lockcheck ./...
//	picolint -j 1 ./...                     sequential (byte-identical to any -j)
//	picolint -json ./...                    findings as a JSON array
//	picolint -sarif findings.sarif ./...    SARIF 2.1.0 for code-scanning UIs
//	picolint -write-baseline ./...          accept current findings
//	picolint -list                          describe the analyzers
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Findings
// can be suppressed two ways: line by line with a justified directive
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line directly above it, or via the
// checked-in baseline (default <module>/picolint.baseline), which
// accepts findings wholesale but reports entries that stop matching —
// the baseline only shrinks. A directive or baseline entry of an
// analyzer that did not run is out of scope, not stale. See DESIGN.md
// §12.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"picola/internal/analysis"
	"picola/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver: it parses args, loads and analyzes the
// packages, applies the baseline, renders output, and returns the exit
// code (0 clean, 1 findings, 2 usage/load error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("picolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "describe the analyzers and exit")
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	sarifPath := fs.String("sarif", "", "write findings as SARIF 2.1.0 to `file` (\"-\" for stdout); written even when clean")
	basePath := fs.String("baseline", "", "baseline `file` of accepted findings (default <module>/picolint.baseline)")
	writeBase := fs.Bool("write-baseline", false, "write the current findings to the baseline file and exit 0")
	workers := par.RegisterFlag(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: picolint [-list] [-analyzers a,b] [-json] [-sarif file] [-baseline file] [-write-baseline] [-j n] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(stderr, "picolint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader("")
	if err != nil {
		fmt.Fprintln(stderr, "picolint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "picolint:", err)
		return 2
	}

	// One whole-program build (serial: the loader caches type-checked
	// packages, and the call graph is a shared read-only structure), then
	// a deterministic parallel analysis pass: per-package diagnostics are
	// collected in input order by par.Map, so the flattened stream — and
	// therefore every output format — is byte-identical at any -j.
	prog := analysis.BuildProgram(pkgs)
	prog.WholeModule = wholeModule(patterns)
	perPkg, err := par.Map(len(pkgs), par.Workers(*workers), func(i int) ([]analysis.Diagnostic, error) {
		return analysis.RunProgram(prog, analyzers, pkgs[i]), nil
	})
	if err != nil {
		fmt.Fprintln(stderr, "picolint:", err)
		return 2
	}
	var diags []analysis.Diagnostic
	for _, ds := range perPkg {
		diags = append(diags, ds...)
	}

	bp := *basePath
	if bp == "" {
		bp = filepath.Join(loader.ModuleDir, "picolint.baseline")
	}
	if *writeBase {
		if err := os.WriteFile(bp, []byte(analysis.FormatBaseline(loader.ModuleDir, diags)), 0o644); err != nil {
			fmt.Fprintln(stderr, "picolint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "picolint: wrote %d finding(s) to %s\n", len(diags), bp)
		return 0
	}
	base, err := analysis.LoadBaseline(bp)
	if err != nil {
		fmt.Fprintln(stderr, "picolint:", err)
		return 2
	}
	diags = base.Filter(loader.ModuleDir, diags)
	// Stale entries are only meaningful when everything was analyzed: on
	// a partial run an unmatched entry is out of scope, not fixed.
	if prog.WholeModule {
		diags = append(diags, base.Stale(analyzers)...)
	}

	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, stdout, loader.ModuleDir, diags); err != nil {
			fmt.Fprintln(stderr, "picolint:", err)
			return 2
		}
	}
	switch {
	case *jsonOut:
		if err := writeJSON(stdout, loader.ModuleDir, diags); err != nil {
			fmt.Fprintln(stderr, "picolint:", err)
			return 2
		}
	case *sarifPath != "-": // "-" routes SARIF to stdout instead of text
		wd, _ := os.Getwd()
		for _, d := range diags {
			if wd != "" && d.Pos.Filename != "" {
				if rel, err := filepath.Rel(wd, d.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
					d.Pos.Filename = rel
				}
			}
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "picolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// wholeModule reports whether the patterns cover the entire module
// (the "./..." wildcard), making baseline staleness and deadexport
// decidable.
func wholeModule(patterns []string) bool {
	for _, p := range patterns {
		if p == "./..." || p == "..." {
			return true
		}
	}
	return false
}

// jsonFinding is the machine-readable finding shape of -json.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func writeJSON(w io.Writer, moduleDir string, diags []analysis.Diagnostic) error {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{
			Analyzer: d.Analyzer,
			File:     moduleRel(moduleDir, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// moduleRel maps an absolute filename onto the module-relative form
// used by machine outputs (stable across checkouts).
func moduleRel(moduleDir, filename string) string {
	if filename == "" {
		return ""
	}
	if rel, err := filepath.Rel(moduleDir, filename); err == nil && !filepath.IsAbs(rel) && rel[0] != '.' {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}
