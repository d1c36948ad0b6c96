package espresso_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"picola/internal/benchgen"
	"picola/internal/symbolic"
)

// -update rewrites testdata/symbolic_covers.txt from the current
// minimizer. The committed file pins every pass's effect on the covers
// the paper's tables start from, literals included: makeSparse, for
// one, can change a cover's literals without moving its cube count.
var update = flag.Bool("update", false, "rewrite the symbolic-cover golden")

const coversGolden = "symbolic_covers.txt"

// TestSymbolicCoversGolden minimizes the symbolic cover of every
// benchgen.Suite machine and compares its cube count, its literal count
// and the SHA-256 of its sorted rendering (Cover.String) with the
// committed golden.
func TestSymbolicCoversGolden(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# machine cubes literals sha256(Cover.String())\n")
	for _, spec := range benchgen.Suite {
		sc, err := symbolic.Build(benchgen.Generate(spec))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		min, err := sc.Minimize()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		sum := sha256.Sum256([]byte(min.String()))
		fmt.Fprintf(&sb, "%s %d %d %s\n", spec.Name, min.Len(), min.Literals(), hex.EncodeToString(sum[:]))
	}
	path := filepath.Join("testdata", coversGolden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run: go test ./internal/espresso -run TestSymbolicCoversGolden -update): %v", err)
	}
	got, wantLines := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("golden has %d lines, the minimizer produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("got %q, want %q", got[i], wantLines[i])
		}
	}
}
