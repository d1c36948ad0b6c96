package nova

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"picola/internal/benchgen"
	"picola/internal/face"
	"picola/internal/symbolic"
)

// encodeListed is the annealer with the spare codes listed up front, as
// face.Encoding.SpareCodes returns them: the reference that Encode's
// lazily drawn spare slots must reproduce exactly. Its memory and time
// double per code bit, so callers keep nv small.
func encodeListed(p *face.Problem, o Options) (*face.Encoding, error) {
	n := p.N()
	nv, err := p.CodeLength(o.NV)
	if err != nil {
		return nil, err
	}
	e := face.NewEncoding(n, nv)
	for sym := 0; sym < n; sym++ {
		e.Codes[sym] = uint64(sym)
	}
	if n == 0 {
		return e, nil
	}
	s := newState(p, e, o)
	r := rand.New(rand.NewSource(o.Seed + 1))
	spares := e.SpareCodes()
	sweeps := 40
	if o.Sweeps > 0 {
		sweeps = o.Sweeps
	}
	cur := s.objective()
	best := cur
	bestCodes := append([]uint64(nil), e.Codes...)
	t := 0.0
	for i := range p.Constraints {
		t += s.weight[i]
	}
	if len(p.Constraints) > 0 {
		t = 2 * t / float64(len(p.Constraints))
	} else {
		t = 1
	}
	for sweep := 0; sweep < sweeps; sweep++ {
		for mv := 0; mv < 4*n; mv++ {
			if len(spares) > 0 && r.Intn(4) == 0 {
				a := r.Intn(n)
				si := r.Intn(len(spares))
				old := s.applyMove(a, spares[si])
				next := s.objective()
				if next >= cur || r.Float64() < math.Exp((next-cur)/t) {
					cur = next
					spares[si] = old
				} else {
					s.applyMove(a, old)
				}
			} else {
				a, b := r.Intn(n), r.Intn(n)
				if a == b {
					continue
				}
				s.applySwap(a, b)
				next := s.objective()
				if next >= cur || r.Float64() < math.Exp((next-cur)/t) {
					cur = next
				} else {
					s.applySwap(a, b)
				}
			}
			if cur > best {
				best = cur
				copy(bestCodes, e.Codes)
			}
		}
		t *= 0.88
		if t < 1e-3 {
			t = 1e-3
		}
	}
	copy(e.Codes, bestCodes)
	return e, nil
}

// TestSpareSlotsMatchList holds Encode to encodeListed: random problems
// at the minimum code length up to six bits more (at most 16), in both
// variants, and the Table I constraint sets up to two bits more.
func TestSpareSlotsMatchList(t *testing.T) {
	type instance struct {
		name   string
		p      *face.Problem
		extra  int
		pairs  []Pair
		seed   int64
		maxBit int
	}
	var cases []instance
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 60; i++ {
		n := 2 + r.Intn(19)
		pairs := []Pair{{A: 0, B: n - 1, Weight: 1 + float64(r.Intn(3))}}
		cases = append(cases, instance{name: "random", p: randomProblem(r, n), extra: 6,
			pairs: pairs, seed: int64(i), maxBit: 16})
	}
	specs := benchgen.Table1Specs()
	if testing.Short() {
		specs = specs[:4]
	}
	for _, spec := range specs {
		p, _, err := symbolic.ExtractConstraints(benchgen.Generate(spec))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{name: spec.Name, p: p, extra: 2, seed: 1, maxBit: 64})
	}
	runs := 0
	for _, c := range cases {
		lo := c.p.MinLength()
		for nv := lo; nv <= lo+c.extra && nv <= c.maxBit; nv++ {
			opts := []Options{{Variant: IHybrid, Seed: c.seed, NV: nv}}
			if c.pairs != nil {
				opts = append(opts, Options{Variant: IOHybrid, Seed: c.seed, NV: nv, OutputPairs: c.pairs})
			}
			for _, o := range opts {
				got, err := Encode(c.p, o)
				if err != nil {
					t.Fatal(err)
				}
				want, err := encodeListed(c.p, o)
				if err != nil {
					t.Fatal(err)
				}
				for s := range want.Codes {
					if got.Codes[s] != want.Codes[s] {
						t.Fatalf("%s nv %d variant %d: codes differ from the listed-spare reference:\n%s\nwant\n%s",
							c.name, nv, o.Variant, got, want)
					}
				}
				runs++
			}
		}
	}
	t.Logf("%d encodings match the reference", runs)
}

// TestLongCodesFinish runs NOVA at code lengths whose spare-code lists
// would not fit in memory; each run must return distinct in-range codes
// in well under a second.
func TestLongCodesFinish(t *testing.T) {
	p := planesProblem()
	for _, nv := range []int{40, 63, 64} {
		start := time.Now()
		e, err := Encode(p, Options{Seed: 1, NV: nv})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("nv %d took %v", nv, d)
		}
		if !e.Injective() {
			t.Fatalf("nv %d: codes not distinct:\n%s", nv, e)
		}
		for s, code := range e.Codes {
			if code&^e.Mask() != 0 {
				t.Fatalf("nv %d: symbol %d's code %#x exceeds %d bits", nv, s, code, nv)
			}
		}
	}
}
