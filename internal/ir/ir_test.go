package ir

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"picola/internal/eval"
	"picola/internal/face"
)

// sampleProblem is a small Table-I style instance with names, weights,
// and constraints of mixed arity.
func sampleProblem() *face.Problem {
	p := &face.Problem{
		Name:  "sample",
		Names: []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"},
	}
	for _, m := range [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7}, {1, 5, 9}, {2, 8}} {
		p.Constraints = append(p.Constraints, face.FromMembers(10, m...))
	}
	p.Weights = []int{1, 2, 1, 3, 1}
	return p
}

func sampleEncoding() *face.Encoding {
	e := face.NewEncoding(10, 4)
	for s := range e.Codes {
		e.Codes[s] = uint64(s)
	}
	return e
}

func sampleAudit() *Audit {
	return &Audit{
		Satisfied:      []bool{true, false, true, false, true},
		Infeasible:     []bool{false, false, false, true, false},
		Cubes:          []int{1, 2, 1, 3, 1},
		Total:          8,
		WeightedTotal:  14,
		SatisfiedCount: 3,
	}
}

func sampleCacheEntries() []eval.CacheEntry {
	return []eval.CacheEntry{
		{Heuristic: false, NV: 4, Used: []uint64{0x03ff}, On: []uint64{0x0007}, Cubes: 1},
		{Heuristic: false, NV: 4, Used: []uint64{0x03ff}, On: []uint64{0x0222}, Cubes: 3},
		{Heuristic: true, NV: 7, Used: []uint64{0xdeadbeef, 0x1234}, On: []uint64{0x8004, 0x1000}, Cubes: 2},
	}
}

func sampleFile() *File {
	return &File{
		Problem:      sampleProblem(),
		Encoding:     sampleEncoding(),
		Audit:        sampleAudit(),
		CacheEntries: sampleCacheEntries(),
	}
}

// roundTrip marshals, unmarshals, and requires value identity.
func roundTrip(t *testing.T, f *File) []byte {
	t.Helper()
	b, err := Marshal(f)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	b2, err := Marshal(got)
	if err != nil {
		t.Fatalf("re-Marshal: %v", err)
	}
	if string(b) != string(b2) {
		t.Fatalf("marshal not canonical: %d vs %d bytes", len(b), len(b2))
	}
	return b
}

func TestRoundTripFull(t *testing.T) {
	f := sampleFile()
	b := roundTrip(t, f)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Problem, f.Problem) {
		t.Errorf("problem round-trip mismatch:\n got %+v\nwant %+v", got.Problem, f.Problem)
	}
	if !reflect.DeepEqual(got.Encoding, f.Encoding) {
		t.Errorf("encoding round-trip mismatch: got %+v want %+v", got.Encoding, f.Encoding)
	}
	if !reflect.DeepEqual(got.Audit, f.Audit) {
		t.Errorf("audit round-trip mismatch: got %+v want %+v", got.Audit, f.Audit)
	}
	if !reflect.DeepEqual(got.CacheEntries, f.CacheEntries) {
		t.Errorf("cache round-trip mismatch: got %+v want %+v", got.CacheEntries, f.CacheEntries)
	}
}

func TestRoundTripSubsets(t *testing.T) {
	full := sampleFile()
	cases := map[string]*File{
		"problem-only":  {Problem: full.Problem},
		"encoding-only": {Encoding: full.Encoding},
		"audit-only":    {Audit: full.Audit},
		"cache-only":    {CacheEntries: full.CacheEntries},
		"empty":         {},
		"empty-cache":   {CacheEntries: []eval.CacheEntry{}},
		"problem-run":   {Problem: full.Problem, Encoding: full.Encoding, Audit: full.Audit},
		"batch-only":    {Batch: &BatchStat{WallNS: 123456789}},
		"batch-zero":    {Batch: &BatchStat{}},
		"checkpoint": {Problem: full.Problem, Encoding: full.Encoding,
			Audit: full.Audit, Batch: &BatchStat{WallNS: 42}},
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			b := roundTrip(t, f)
			got, err := Unmarshal(b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, f) {
				t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, f)
			}
		})
	}
}

// TestRoundTripCacheExport proves a warmed eval.Cache survives the wire:
// export → marshal → unmarshal → import into a fresh cache reproduces
// every memoized count.
func TestRoundTripCacheExport(t *testing.T) {
	p := sampleProblem()
	e := sampleEncoding()
	cache := eval.NewCache()
	want := make([]int, len(p.Constraints))
	for i, c := range p.Constraints {
		k, err := cache.ConstraintCubes(e, c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = k
	}
	entries := cache.Export()
	b, err := Marshal(&File{CacheEntries: entries})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	fresh := eval.NewCache()
	st, err := fresh.Import(got.CacheEntries)
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserted != len(entries) || st.Skipped() != 0 {
		t.Fatalf("imported %d of %d entries (%v)", st.Inserted, len(entries), st)
	}
	if fresh.Len() != cache.Len() {
		t.Fatalf("cache length %d after import, want %d", fresh.Len(), cache.Len())
	}
	// Re-export must agree entry for entry (Export's order is canonical).
	if !reflect.DeepEqual(fresh.Export(), entries) {
		t.Error("re-exported entries differ from the originals")
	}
}

func TestRejectFutureVersion(t *testing.T) {
	b, err := Marshal(sampleFile())
	if err != nil {
		t.Fatal(err)
	}
	b[8], b[9] = 2, 0 // version 2
	_, err = Unmarshal(b)
	if !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("version 2 gave %v, want ErrFutureVersion", err)
	}
	b[8], b[9] = 0xff, 0xff
	if _, err := Unmarshal(b); !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("version 0xffff gave %v, want ErrFutureVersion", err)
	}
}

func TestRejectTruncatedSection(t *testing.T) {
	b, err := Marshal(sampleFile())
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must error, never panic, and the ones cutting
	// into declared payloads must report truncation.
	for cut := 0; cut < len(b); cut++ {
		_, err := Unmarshal(b[:cut])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes unmarshalled successfully", cut, len(b))
		}
	}
	if _, err := Unmarshal(b[:len(b)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("one-byte-short input gave %v, want ErrTruncated", err)
	}
}

func TestRejectMalformed(t *testing.T) {
	good, err := Marshal(sampleFile())
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		fn(b)
		return b
	}
	cases := map[string]struct {
		input []byte
		want  error
	}{
		"empty":         {[]byte{}, ErrTruncated},
		"bad-magic":     {mutate(func(b []byte) { b[0] = 'X' }), ErrCorrupt},
		"version-zero":  {mutate(func(b []byte) { b[8], b[9] = 0, 0 }), ErrCorrupt},
		"nonzero-flags": {mutate(func(b []byte) { b[10] = 1 }), ErrCorrupt},
		"trailing":      {append(append([]byte(nil), good...), 0), ErrCorrupt},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Unmarshal(tc.input)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestRejectDuplicateSection(t *testing.T) {
	// Hand-build a container with the Encoding section twice.
	enc, err := marshalEncoding(sampleEncoding())
	if err != nil {
		t.Fatal(err)
	}
	var w writer
	w.bytes([]byte(Magic))
	w.u16(Version)
	w.u16(0)
	w.u32(2)
	for i := 0; i < 2; i++ {
		w.u32(secEncoding)
		w.u64(uint64(len(enc)))
	}
	w.bytes(enc)
	w.bytes(enc)
	if _, err := Unmarshal(w.b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate section gave %v, want ErrCorrupt", err)
	}
}

func TestUnknownSectionSkipped(t *testing.T) {
	enc, err := marshalEncoding(sampleEncoding())
	if err != nil {
		t.Fatal(err)
	}
	var w writer
	w.bytes([]byte(Magic))
	w.u16(Version)
	w.u16(0)
	w.u32(2)
	w.u32(999)
	w.u64(3)
	w.u32(secEncoding)
	w.u64(uint64(len(enc)))
	w.bytes([]byte{1, 2, 3})
	w.bytes(enc)
	f, err := Unmarshal(w.b)
	if err != nil {
		t.Fatalf("unknown section should be skipped, got %v", err)
	}
	if f.Encoding == nil || f.Encoding.N() != 10 {
		t.Fatalf("encoding lost next to unknown section: %+v", f.Encoding)
	}
}

func TestRejectCrossSectionMismatch(t *testing.T) {
	f := sampleFile()
	f.Encoding = face.NewEncoding(7, 3) // problem has 10 symbols
	if _, err := Marshal(f); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched encoding marshalled: %v", err)
	}
	f = sampleFile()
	f.Audit.Cubes = f.Audit.Cubes[:3]
	f.Audit.Satisfied = f.Audit.Satisfied[:3]
	f.Audit.Infeasible = f.Audit.Infeasible[:3]
	if _, err := Marshal(f); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched audit marshalled: %v", err)
	}
}

func TestRejectOutOfRangeConstraintBit(t *testing.T) {
	// A 10-symbol problem whose constraint bitset sets bit 10.
	p, err := marshalProblem(sampleProblem())
	if err != nil {
		t.Fatal(err)
	}
	// The last constraint's bitset word is the final 8 bytes of the
	// payload; set a bit beyond the symbol count.
	p[len(p)-6] |= 0x04 // bit 10 of the little-endian word
	if _, err := Unmarshal(problemContainer(p)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range constraint bit gave %v, want ErrCorrupt", err)
	}
}

// problemContainer wraps a hand-edited Problem section payload in a
// one-section container.
func problemContainer(p []byte) []byte {
	var w writer
	w.bytes([]byte(Magic))
	w.u16(Version)
	w.u16(0)
	w.u32(1)
	w.u32(secProblem)
	w.u64(uint64(len(p)))
	w.bytes(p)
	return w.b
}

// TestRejectOutOfRangeWeight: the decoder accepts exactly the weights
// marshalProblem writes, [1, 2^31], so anything it decodes re-marshals.
func TestRejectOutOfRangeWeight(t *testing.T) {
	for _, tc := range []struct {
		wt     uint32
		reject bool
	}{{0, true}, {1<<31 + 1, true}, {1<<32 - 1, true}, {1 << 31, false}, {1, false}} {
		p, err := marshalProblem(sampleProblem())
		if err != nil {
			t.Fatal(err)
		}
		// The last constraint is its u32 weight then one bitset word.
		binary.LittleEndian.PutUint32(p[len(p)-12:], tc.wt)
		f, err := Unmarshal(problemContainer(p))
		if tc.reject {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("weight %d gave %v, want ErrCorrupt", tc.wt, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("weight %d rejected: %v", tc.wt, err)
			continue
		}
		if _, err := Marshal(f); err != nil {
			t.Errorf("weight %d decoded but did not re-marshal: %v", tc.wt, err)
		}
	}
}

func TestImportRejectsInvalidEntries(t *testing.T) {
	cache := eval.NewCache()
	cases := []struct {
		ent   eval.CacheEntry
		class func(eval.ImportStats) int
		name  string
	}{
		{eval.CacheEntry{NV: 0, Used: []uint64{}, On: []uint64{}},
			func(s eval.ImportStats) int { return s.BadNV }, "bad-nv (0)"},
		{eval.CacheEntry{NV: 13, Used: []uint64{1}, On: []uint64{1}},
			func(s eval.ImportStats) int { return s.BadNV }, "bad-nv (13)"},
		{eval.CacheEntry{NV: 4, Used: []uint64{1, 2}, On: []uint64{1}},
			func(s eval.ImportStats) int { return s.BadShape }, "bad-shape"},
		{eval.CacheEntry{NV: 4, Used: []uint64{1}, On: []uint64{1}, Cubes: -1},
			func(s eval.ImportStats) int { return s.BadCubes }, "bad-cubes"},
	}
	for i, tc := range cases {
		st, err := cache.Import([]eval.CacheEntry{tc.ent})
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, tc.name, err)
		}
		if st.Inserted != 0 || st.Skipped() != 1 || tc.class(st) != 1 {
			t.Errorf("case %d (%s): stats %v, want exactly one skip in its class", i, tc.name, st)
		}
	}
	if cache.Len() != 0 {
		t.Errorf("invalid entries left %d memoized", cache.Len())
	}
	if _, err := (*eval.Cache)(nil).Import(nil); err == nil {
		t.Error("nil cache import succeeded")
	}
}

// TestDecodedEntriesIsolated: the decoder carves every entry's bitsets
// from one slab, cap-limited, so appending to one entry's Used or On
// can never write into its neighbour's words.
func TestDecodedEntriesIsolated(t *testing.T) {
	want := []eval.CacheEntry{
		{NV: 4, Used: []uint64{0xffff}, On: []uint64{0x3}, Cubes: 1},
		{NV: 7, Used: []uint64{^uint64(0), 0xff}, On: []uint64{0x5, 0x1}, Cubes: 2},
		{Heuristic: true, NV: 4, Used: []uint64{0xff}, On: []uint64{0x9}, Cubes: 3},
	}
	b, err := Marshal(&File{CacheEntries: want})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := f.CacheEntries
	for i := range got[:len(got)-1] {
		_ = append(got[i].Used, 0xdead)
		_ = append(got[i].On, 0xbeef)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("appending to decoded bitsets changed a neighbour: %+v", got)
	}
}

// TestRejectEntryWordsPastDeclaredCount: a payload whose declared entry
// count cannot fit beside an entry's bitsets is truncated input — the
// word slab, sized from the payload, never overruns.
func TestRejectEntryWordsPastDeclaredCount(t *testing.T) {
	// Two entries declared, but the payload holds only the first, an
	// nv=16 entry large enough to pass the per-entry byte budget.
	var w writer
	w.u32(2)
	w.u8(0)
	w.u8(16)
	for i := 0; i < 2*wordsFor(1<<16); i++ {
		w.u64(0)
	}
	w.u32(1)
	if _, err := unmarshalCacheEntries(w.b); !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}
