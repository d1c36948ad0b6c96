package analysis

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads one testdata fixture package through the real
// loader (module-root-relative, so the test is cwd-independent).
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(filepath.Join("internal", "analysis", "testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("want 1 package, got %d", len(pkgs))
	}
	return pkgs[0]
}

// Run applies the analyzers to pkg, filters suppressed findings, and
// returns the rest position-sorted. The whole-program context is built
// from the single package.
func Run(analyzers []*Analyzer, pkg *Package) []Diagnostic {
	return RunProgram(BuildProgram([]*Package{pkg}), analyzers, pkg)
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// wantsOf reads the `// want "substr"` annotations of every fixture
// file, keyed by "<file>:<line>".
func wantsOf(t *testing.T, pkg *Package) map[string]string {
	t.Helper()
	wants := map[string]string{}
	seen := map[string]bool{}
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if seen[name] {
			continue
		}
		seen[name] = true
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				wants[fmt.Sprintf("%s:%d", name, i+1)] = m[1]
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over its fixture and matches the
// diagnostics against the want annotations exactly.
func checkFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	pkg := loadFixture(t, a.Name)
	wants := wantsOf(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want annotations", a.Name)
	}
	matched := map[string]bool{}
	for _, d := range Run([]*Analyzer{a}, pkg) {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		want, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !strings.Contains(d.Message, want) {
			t.Errorf("%s: message %q does not contain %q", key, d.Message, want)
		}
		matched[key] = true
	}
	for key, want := range wants {
		if !matched[key] {
			t.Errorf("%s: expected a diagnostic containing %q, got none", key, want)
		}
	}
}

func TestSeedrandFixture(t *testing.T) { checkFixture(t, Seedrand) }
func TestSpanendFixture(t *testing.T)  { checkFixture(t, Spanend) }
func TestDropperrFixture(t *testing.T) { checkFixture(t, Dropperr) }
func TestTracenilFixture(t *testing.T) { checkFixture(t, Tracenil) }
func TestPoolputFixture(t *testing.T)  { checkFixture(t, Poolput) }

func TestMetricnameFixture(t *testing.T) { checkFixture(t, Metricname) }
func TestDeadexportFixture(t *testing.T) { checkFixture(t, Deadexport) }

// TestDeadexportPublicAPI: only a non-main package outside every
// internal/ directory is public API, exempt from deadexport.
func TestDeadexportPublicAPI(t *testing.T) {
	for _, tc := range []struct {
		path, name string
		want       bool
	}{
		{"picola", "picola", true},
		{"picola/internal/cube", "cube", false},
		{"picola/internal", "internal", false},
		{"picola/cmd/tables", "main", false},
	} {
		if got := isPublicAPI(types.NewPackage(tc.path, tc.name)); got != tc.want {
			t.Errorf("isPublicAPI(%s) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

// TestDettaintScope: map order outside the deterministic package set is
// not dettaint's business (blif writes files, never tables).
func TestDettaintScope(t *testing.T) {
	l, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("internal/blif")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run([]*Analyzer{Dettaint}, pkgs[0]) {
		t.Errorf("unexpected diagnostic outside deterministic set: %s", d)
	}
}

// TestWholeTreeClean is the enforcement test: the repo's own packages
// must stay free of findings (the same gate verify.sh and CI run).
func TestWholeTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	// dettaint names its packages by string, so an entry can outlive
	// its package.
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.ImportPath] = true
	}
	for path := range DeterministicPackages {
		if !loaded[path] {
			t.Errorf("DeterministicPackages names %s, which is not a module package", path)
		}
	}
	prog := BuildProgram(pkgs)
	prog.WholeModule = true
	for _, pkg := range pkgs {
		for _, d := range RunProgram(prog, All(), pkg) {
			t.Errorf("%s", d)
		}
	}
}

// TestSuppression covers the directive edge cases the fixtures cannot:
// malformed directives are reported, stale ones are reported, and a
// directive only silences its named analyzer.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	var got []string
	for _, d := range Run(All(), pkg) {
		got = append(got, fmt.Sprintf("%d:%s:%s", d.Pos.Line, d.Analyzer, shortMsg(d.Message)))
	}
	want := []string{
		"10:lint:needs-reason", // directive missing justification
		"11:seedrand:flagged",  // ... so the call below it is still flagged
		"16:seedrand:flagged",  // directive names the wrong analyzer
		"15:lint:stale",        // ... and is itself stale
	}
	for _, w := range want {
		parts := strings.SplitN(w, ":", 3)
		found := false
		for _, g := range got {
			if strings.HasPrefix(g, parts[0]+":"+parts[1]+":") {
				found = true
			}
		}
		if !found {
			t.Errorf("missing diagnostic %s in %v", w, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("want %d diagnostics, got %v", len(want), got)
	}
}

// TestSuppressionSubset: on a run of some analyzers, a directive that
// names only analyzers which did not run is out of scope, not stale.
func TestSuppressionSubset(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	var got []string
	for _, d := range Run([]*Analyzer{Spanend}, pkg) {
		got = append(got, fmt.Sprintf("%d:%s:%s", d.Pos.Line, d.Analyzer, shortMsg(d.Message)))
	}
	// Only the malformed directive is reported: the dropperr and
	// seedrand directives name analyzers that did not run.
	if len(got) != 1 || got[0] != "10:lint:needs-reason" {
		t.Errorf("want only the malformed directive, got %v", got)
	}
}

func shortMsg(m string) string {
	switch {
	case strings.Contains(m, "needs an analyzer name"):
		return "needs-reason"
	case strings.Contains(m, "suppresses nothing"):
		return "stale"
	default:
		return "flagged"
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("dettaint, seedrand")
	if err != nil || len(as) != 2 || as[0].Name != "dettaint" || as[1].Name != "seedrand" {
		t.Fatalf("ByName: %v %v", as, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
	if as, err := ByName(""); err != nil || len(as) != len(All()) {
		t.Fatalf("ByName empty: %v %v", as, err)
	}
}
