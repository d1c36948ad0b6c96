package core_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"picola/internal/consfile"
	"picola/internal/core"
	"picola/internal/verify"
)

// TestEncodeLongCodeLength: the estimate polish lists every spare code of
// the 2^nv space, so it runs only up to a bounded code length. Beyond the
// bound an explicit long code length must still encode promptly (without
// it, nv = 20 takes seconds and hundreds of megabytes, and nv = 40 would
// walk 2^40 codes) and yield a valid encoding. The package is core_test
// because verify imports core.
func TestEncodeLongCodeLength(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "figure1.cons"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := consfile.ParseString(string(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, nv := range []int{20, 40} {
		t0 := time.Now()
		r, err := core.Encode(p, core.Options{NV: nv})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > time.Second {
			t.Fatalf("nv=%d: Encode took %v, want under 1s", nv, d)
		}
		if rep := verify.CheckEncoding(p, r.Encoding); !rep.Ok() {
			t.Fatalf("nv=%d: %v", nv, rep.Err())
		}
	}
}
