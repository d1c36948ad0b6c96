package eval

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"picola/internal/face"
	"picola/internal/obs"
)

// frontStream is a request stream the way an encoder sends it: requests
// against a few live encodings whose codes swap in place between
// requests, as the exact polish's do. Each side replays it on its own
// clones of encs.
type frontStream struct {
	encs []*face.Encoding
	ops  []frontOp
}

// frontOp requests con under encoding enc, or, with swap set, swaps the
// codes of symbols a and b of enc.
type frontOp struct {
	enc  int
	con  face.Constraint
	swap bool
	a, b int
}

// newFrontStream draws a stream over code lengths 1 to memoMaxNV+1: an
// injective encoding per length with violated, satisfied and member-less
// constraints, the same codes and constraints one column wider (the same
// bitsets under another key), and a non-injective encoding whose
// conflicting constraint (a non-member sharing a member's code) is an
// error. Requests repeat, so the front answers many from its map; nv 7
// requests bypass it.
func newFrontStream(r *rand.Rand) *frontStream {
	s := &frontStream{}
	type request struct {
		enc int
		con face.Constraint
	}
	var pool []request
	var narrower request // a request of the previous length to widen
	for nv := 1; nv <= memoMaxNV+1; nv++ {
		n := 1 + r.Intn(min(1<<uint(nv), 40))
		e := face.NewEncoding(n, nv)
		for s, code := range r.Perm(1 << uint(nv))[:n] {
			e.Codes[s] = uint64(code)
		}
		s.encs = append(s.encs, e)
		ei := len(s.encs) - 1
		if nv > 1 {
			w := s.encs[narrower.enc].Clone()
			w.NV = nv
			s.encs = append(s.encs, w)
			pool = append(pool, request{len(s.encs) - 1, narrower.con})
		}
		for k := 0; k < 4; k++ {
			c := face.NewConstraint(n)
			for sym := 0; sym < n; sym++ {
				if r.Intn(2) == 0 {
					c.Add(sym)
				}
			}
			pool = append(pool, request{ei, c})
		}
		narrower = pool[len(pool)-1]
		// Satisfied: the symbols whose codes lie in a random face
		// (member-less when the face holds no code).
		for k := 0; k < 2; k++ {
			f := face.Face{Agree: r.Uint64() & e.Mask()}
			f.Vals = r.Uint64() & f.Agree
			c := face.NewConstraint(n)
			for sym, code := range e.Codes {
				if f.Contains(code) {
					c.Add(sym)
				}
			}
			pool = append(pool, request{ei, c})
		}
		pool = append(pool, request{ei, face.NewConstraint(n)})
		if n >= 3 {
			// Symbols 0 and 1 share a code: split by the constraint it is
			// both ON and OFF, an error; joined it is an ordinary request
			// that only the shared path's full key serves.
			d := e.Clone()
			d.Codes[1] = d.Codes[0]
			s.encs = append(s.encs, d)
			di := len(s.encs) - 1
			pool = append(pool, request{di, face.FromMembers(n, 0, 2)}, request{di, face.FromMembers(n, 0, 1)})
		}
	}
	for i := 0; i < 800; i++ {
		if r.Intn(8) == 0 {
			ei := r.Intn(len(s.encs))
			n := s.encs[ei].N()
			s.ops = append(s.ops, frontOp{enc: ei, swap: true, a: r.Intn(n), b: r.Intn(n)})
			continue
		}
		q := pool[r.Intn(len(pool))]
		s.ops = append(s.ops, frontOp{enc: q.enc, con: q.con})
	}
	return s
}

// replay runs the stream on clones of its encodings, asking each request
// of ask, and returns the answers and error texts in order.
func (s *frontStream) replay(ask func(*face.Encoding, face.Constraint) (int, error)) ([]int, []string) {
	encs := make([]*face.Encoding, len(s.encs))
	for i, e := range s.encs {
		encs[i] = e.Clone()
	}
	var ks []int
	var errs []string
	for _, op := range s.ops {
		e := encs[op.enc]
		if op.swap {
			e.Codes[op.a], e.Codes[op.b] = e.Codes[op.b], e.Codes[op.a]
			continue
		}
		k, err := ask(e, op.con)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		ks = append(ks, k)
		errs = append(errs, msg)
	}
	return ks, errs
}

// frontCaches are the caches a front and its twin run on: the default
// one, one whose budget holds no entry (every count is computed and not
// inserted, so no repeat may be answered locally), and none.
var frontCaches = []struct {
	name string
	make func() *Cache
}{
	{"default", NewCache},
	{"no-room", func() *Cache { return NewCacheBytes(1) }},
	{"nil", func() *Cache { return nil }},
}

// TestLocalParity: a front answers every request of random streams as
// the shared path does on a twin cache, errors included.
func TestLocalParity(t *testing.T) {
	ctx := context.Background()
	for _, fc := range frontCaches {
		for seed := int64(1); seed <= 8; seed++ {
			s := newFrontStream(rand.New(rand.NewSource(seed)))
			front := fc.make().Local()
			twin := fc.make()
			got, gotErrs := s.replay(func(e *face.Encoding, c face.Constraint) (int, error) {
				return front.ConstraintCubes(ctx, e, c)
			})
			want, wantErrs := s.replay(func(e *face.Encoding, c face.Constraint) (int, error) {
				return twin.constraintCubes(ctx, e, c, false)
			})
			errs := 0
			for i := range want {
				if got[i] != want[i] || gotErrs[i] != wantErrs[i] {
					t.Fatalf("%s cache, seed %d, request %d: front (%d, %q), shared path (%d, %q)",
						fc.name, seed, i, got[i], gotErrs[i], want[i], wantErrs[i])
				}
				if wantErrs[i] != "" {
					errs++
				}
			}
			if errs == 0 {
				t.Fatalf("%s cache, seed %d: the stream asked no conflicting request", fc.name, seed)
			}
		}
	}
}

// sharedCounters snapshots every eval.* counter and
// espresso.exact_minimize.
func sharedCounters() map[string]int64 {
	out := make(map[string]int64)
	for k, v := range obs.Default.Snapshot().Counters {
		if strings.HasPrefix(k, "eval.") || k == "espresso.exact_minimize" {
			out[k] = v
		}
	}
	return out
}

// counterDeltas runs f and returns how far each sharedCounters counter
// moved.
func counterDeltas(f func()) map[string]int64 {
	before := sharedCounters()
	f()
	d := sharedCounters()
	for k, v := range before {
		d[k] -= v
	}
	return d
}

// TestLocalSameCacheAndCounters: after the same request stream and a
// Flush, a front leaves its cache exporting the entries the shared path
// leaves in a twin, and has moved every eval.* counter and the exact
// count by the same amounts. The sides run one after the other, so the
// deltas are each side's own.
func TestLocalSameCacheAndCounters(t *testing.T) {
	ctx := context.Background()
	for _, fc := range frontCaches {
		for seed := int64(1); seed <= 4; seed++ {
			s := newFrontStream(rand.New(rand.NewSource(seed)))
			viaFront, viaShared := fc.make(), fc.make()
			front := viaFront.Local()
			dFront := counterDeltas(func() {
				s.replay(func(e *face.Encoding, c face.Constraint) (int, error) {
					return front.ConstraintCubes(ctx, e, c)
				})
				front.Flush()
			})
			dShared := counterDeltas(func() {
				s.replay(func(e *face.Encoding, c face.Constraint) (int, error) {
					return viaShared.constraintCubes(ctx, e, c, false)
				})
			})
			if !reflect.DeepEqual(dFront, dShared) {
				t.Fatalf("%s cache, seed %d: counter deltas through the front %v, shared path %v",
					fc.name, seed, dFront, dShared)
			}
			if fc.name == "default" && dShared["eval.cache.hits"] == 0 {
				t.Fatalf("seed %d: the stream repeated no request", seed)
			}
			if a, b := viaFront.Export(), viaShared.Export(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s cache, seed %d: front's cache exports %d entries, shared path's %d, or they differ",
					fc.name, seed, len(a), len(b))
			}
		}
	}
}

// TestAllocsLocalRepeat: once warmed, a front answers repeats — a
// violated, a satisfied and a member-less constraint — with no
// allocation.
func TestAllocsLocalRepeat(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	const n = 40
	e := face.NewEncoding(n, 6)
	for s := 0; s < n; s++ {
		e.Codes[s] = uint64(s*37) % 64
	}
	cons := []face.Constraint{
		face.FromMembers(n, 0, 3, 7, 11, 19, 23, 30),
		face.FromMembers(n, 0),
		face.NewConstraint(n),
	}
	front := NewCache().Local()
	ctx := context.Background()
	ask := func() {
		for _, c := range cons {
			if _, err := front.ConstraintCubes(ctx, e, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	ask()
	if allocs := testing.AllocsPerRun(200, ask); allocs != 0 {
		t.Fatalf("a warmed repeat allocates %.1f objects per run, want 0", allocs)
	}
	front.Flush()
}

// TestLocalTimesComputedCountsOnce: a computed exact count adds exactly
// one observation to espresso.exact_minimize.time and none to eval's
// espresso histograms; a repeat adds none. Above memoMaxNV, and with no
// cache, every request is computed.
func TestLocalTimesComputedCountsOnce(t *testing.T) {
	ctx := context.Background()
	observations := func() (exactTimer, evalHists int64) {
		snap := obs.Default.Snapshot()
		return snap.Timers["espresso.exact_minimize.time"].Count,
			snap.Histograms["eval.minimize_ns"].Count + snap.Histograms["eval.cache.lookup_ns"].Count
	}
	for _, tc := range []struct {
		name    string
		cache   *Cache
		e       *face.Encoding
		con     face.Constraint
		perCall int64 // timed counts per request after the first
	}{
		{"memoized", NewCache(), testEncoding(12, 4), face.FromMembers(12, 0, 3, 5, 10), 0},
		{"above memoMaxNV", NewCache(), testEncoding(70, 7), face.FromMembers(70, 0, 5, 9, 33, 64, 69), 1},
		{"no cache", nil, testEncoding(12, 4), face.FromMembers(12, 0, 3, 5, 10), 1},
	} {
		if tc.e.Satisfied(tc.con) {
			t.Fatalf("%s: the constraint is satisfied; the test needs a computed count", tc.name)
		}
		front := tc.cache.Local()
		timer0, hists0 := observations()
		for call := int64(1); call <= 3; call++ {
			if _, err := front.ConstraintCubes(ctx, tc.e, tc.con); err != nil {
				t.Fatal(err)
			}
			timer, hists := observations()
			if want := 1 + (call-1)*tc.perCall; timer-timer0 != want {
				t.Fatalf("%s: %d requests timed %d exact counts, want %d", tc.name, call, timer-timer0, want)
			}
			if hists != hists0 {
				t.Fatalf("%s: exact requests added %d observations to eval's espresso histograms", tc.name, hists-hists0)
			}
		}
		front.Flush()
	}
}
