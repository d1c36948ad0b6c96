// Package ir is the repository's versioned binary interchange format,
// picola-ir/v1: one self-describing container for the objects every
// future daemon, on-disk cache, and sharded table harness must exchange
// — face-constraint problems (consfile- or KISS-derived), encodings with
// their audit results, and eval.Cache entries under the canonical
// (policy, nv, ON-bitset, used-bitset) signature.
//
// Layout (all integers little-endian):
//
//	offset 0   magic    8 bytes  "PICOLAIR"
//	offset 8   version  u16      format version (1)
//	offset 10  flags    u16      reserved, must be 0 in v1
//	offset 12  nsec     u32      section count
//	offset 16  section table: nsec × { type u32, length u64 }
//	...        payloads, concatenated in table order, no padding
//
// Section types: 1 = Problem, 2 = Encoding, 3 = Audit, 4 = CacheEntries,
// 5 = BatchStat (checkpoint bookkeeping).
// Unknown section types are skipped on read (room for v1-compatible
// extensions); duplicate known sections, truncated payloads, trailing
// bytes, and future versions are errors. Marshal writes sections in
// ascending type order, so the encoding of a File is canonical:
// unmarshal∘marshal is the identity on values, and marshal∘unmarshal is
// the identity on well-formed canonical bytes (the golden-vector and
// fuzz tests pin both).
package ir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"picola/internal/eval"
	"picola/internal/face"
)

// SchemaName names the format the way the JSON snapshots name theirs
// (picola-bench/v1, picola-ledger/v1).
const SchemaName = "picola-ir/v1"

// Magic is the 8-byte file signature.
const Magic = "PICOLAIR"

// Version is the current (and only) format version.
const Version = 1

// Section types. BatchStat (5) is a v1-compatible extension: a v1
// reader predating it skips the section, which is exactly right — it
// carries run bookkeeping, never semantics.
const (
	secProblem  = 1
	secEncoding = 2
	secAudit    = 3
	secCache    = 4
	secBatch    = 5
	secKnownMax = secBatch
)

// Sentinel errors; every Unmarshal failure wraps exactly one of them.
var (
	// ErrTruncated marks input that ends before a declared length.
	ErrTruncated = errors.New("picola-ir: truncated input")
	// ErrFutureVersion marks a file written by a newer format version.
	ErrFutureVersion = errors.New("picola-ir: unsupported future version")
	// ErrCorrupt marks structurally invalid input (bad magic, duplicate
	// sections, out-of-range fields, trailing bytes).
	ErrCorrupt = errors.New("picola-ir: corrupt input")
)

// Audit is the serialized form of an encoding's evaluation: the
// per-constraint verdicts and cube counts plus the Table-I style totals
// (the fields of core.Result and eval.Cost that summarize a run).
type Audit struct {
	Satisfied      []bool
	Infeasible     []bool
	Cubes          []int
	Total          int
	WeightedTotal  int
	SatisfiedCount int
}

// BatchStat is the per-instance bookkeeping of one batch-runner
// checkpoint frame: the wall time the instance cost when it was first
// computed. Replaying it from the journal is what lets a resumed run
// report the whole corpus's summed wall without re-measuring (and keeps
// the aggregate snapshot free of resume-dependent timing).
type BatchStat struct {
	WallNS int64
}

// File is the deserialized container. Nil fields mean the section is
// absent; Marshal writes only present sections.
type File struct {
	Problem      *face.Problem
	Encoding     *face.Encoding
	Audit        *Audit
	CacheEntries []eval.CacheEntry
	Batch        *BatchStat
}

// Limits defending Unmarshal against adversarial counts: each element of
// a counted collection occupies at least a few bytes, so the byte-budget
// checks below bound allocations by the input size, and these caps bound
// them absolutely.
const (
	maxSymbols     = 1 << 20
	maxConstraints = 1 << 20
	maxSections    = 1 << 10
	maxEntryNV     = 16
	// maxCacheEntries bounds one CacheEntries section. A corpus-scale
	// store export legitimately reaches millions of entries, so the cap
	// is wider than maxConstraints — and marshalCacheEntries enforces it
	// symmetrically, so a writer can never emit a section its own reader
	// would reject as corrupt.
	maxCacheEntries = 1 << 24
)

// ---------------------------------------------------------------------
// Marshal

type writer struct {
	b []byte
}

func (w *writer) u8(v uint8)     { w.b = append(w.b, v) }
func (w *writer) u16(v uint16)   { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32)   { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64)   { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) bytes(p []byte) { w.b = append(w.b, p...) }

// wordsFor returns the uint64 bitset word count covering n bits.
func wordsFor(n int) int { return (n + 63) / 64 }

func marshalProblem(p *face.Problem) ([]byte, error) {
	n := len(p.Names)
	if n > maxSymbols {
		return nil, fmt.Errorf("%w: %d symbols exceeds limit", ErrCorrupt, n)
	}
	for _, c := range p.Constraints {
		if c.N() != n {
			return nil, fmt.Errorf("%w: constraint over %d symbols in a %d-symbol problem",
				ErrCorrupt, c.N(), n)
		}
	}
	if len(p.Weights) > len(p.Constraints) {
		return nil, fmt.Errorf("%w: %d weights for %d constraints",
			ErrCorrupt, len(p.Weights), len(p.Constraints))
	}
	var w writer
	w.u32(uint32(len(p.Name)))
	w.bytes([]byte(p.Name))
	w.u32(uint32(n))
	for _, name := range p.Names {
		w.u32(uint32(len(name)))
		w.bytes([]byte(name))
	}
	w.u32(uint32(len(p.Constraints)))
	words := wordsFor(n)
	for i, c := range p.Constraints {
		wt := p.Weight(i)
		if wt < 1 || wt > 1<<31 {
			return nil, fmt.Errorf("%w: weight %d outside [1, 2^31]", ErrCorrupt, wt)
		}
		w.u32(uint32(wt))
		for wi := 0; wi < words; wi++ {
			var v uint64
			lo := wi * 64
			for b := 0; b < 64 && lo+b < n; b++ {
				if c.Has(lo + b) {
					v |= 1 << uint(b)
				}
			}
			w.u64(v)
		}
	}
	return w.b, nil
}

func marshalEncoding(e *face.Encoding) ([]byte, error) {
	if e.NV < 0 || e.NV > 64 {
		return nil, fmt.Errorf("%w: code length %d outside [0, 64]", ErrCorrupt, e.NV)
	}
	if len(e.Codes) > maxSymbols {
		return nil, fmt.Errorf("%w: %d codes exceeds limit", ErrCorrupt, len(e.Codes))
	}
	mask := ^uint64(0)
	if e.NV < 64 {
		mask = uint64(1)<<uint(e.NV) - 1
	}
	var w writer
	w.u32(uint32(len(e.Codes)))
	w.u32(uint32(e.NV))
	for _, c := range e.Codes {
		if c&^mask != 0 {
			return nil, fmt.Errorf("%w: code %#x exceeds %d bits", ErrCorrupt, c, e.NV)
		}
		w.u64(c)
	}
	return w.b, nil
}

func marshalBoolBits(w *writer, bs []bool) {
	words := wordsFor(len(bs))
	for wi := 0; wi < words; wi++ {
		var v uint64
		lo := wi * 64
		for b := 0; b < 64 && lo+b < len(bs); b++ {
			if bs[lo+b] {
				v |= 1 << uint(b)
			}
		}
		w.u64(v)
	}
}

func marshalAudit(a *Audit) ([]byte, error) {
	n := len(a.Cubes)
	if n > maxConstraints {
		return nil, fmt.Errorf("%w: %d audited constraints exceeds limit", ErrCorrupt, n)
	}
	if len(a.Satisfied) != n || len(a.Infeasible) != n {
		return nil, fmt.Errorf("%w: audit slices disagree (%d satisfied, %d infeasible, %d cubes)",
			ErrCorrupt, len(a.Satisfied), len(a.Infeasible), n)
	}
	if a.Total < 0 || a.WeightedTotal < 0 || a.SatisfiedCount < 0 {
		return nil, fmt.Errorf("%w: negative audit totals", ErrCorrupt)
	}
	var w writer
	w.u32(uint32(n))
	marshalBoolBits(&w, a.Satisfied)
	marshalBoolBits(&w, a.Infeasible)
	for _, k := range a.Cubes {
		if k < 0 {
			return nil, fmt.Errorf("%w: negative cube count %d", ErrCorrupt, k)
		}
		w.u32(uint32(k))
	}
	w.u64(uint64(a.Total))
	w.u64(uint64(a.WeightedTotal))
	w.u32(uint32(a.SatisfiedCount))
	return w.b, nil
}

func marshalCacheEntries(entries []eval.CacheEntry) ([]byte, error) {
	if len(entries) > maxCacheEntries {
		return nil, fmt.Errorf("%w: %d cache entries exceeds limit %d",
			ErrCorrupt, len(entries), maxCacheEntries)
	}
	var w writer
	w.u32(uint32(len(entries)))
	for i, ent := range entries {
		if ent.NV < 1 || ent.NV > maxEntryNV {
			return nil, fmt.Errorf("%w: entry %d: nv %d outside [1, %d]",
				ErrCorrupt, i, ent.NV, maxEntryNV)
		}
		words := wordsFor(1 << uint(ent.NV))
		if len(ent.Used) != words || len(ent.On) != words {
			return nil, fmt.Errorf("%w: entry %d: bitset words %d/%d, want %d",
				ErrCorrupt, i, len(ent.Used), len(ent.On), words)
		}
		if ent.Cubes < 0 {
			return nil, fmt.Errorf("%w: entry %d: negative cube count", ErrCorrupt, i)
		}
		if ent.Heuristic {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u8(uint8(ent.NV))
		for _, v := range ent.Used {
			w.u64(v)
		}
		for _, v := range ent.On {
			w.u64(v)
		}
		w.u32(uint32(ent.Cubes))
	}
	return w.b, nil
}

// Marshal serializes the file. The output is canonical: sections appear
// in ascending type order and every field has exactly one encoding, so
// equal Files marshal to equal bytes.
func Marshal(f *File) ([]byte, error) {
	type section struct {
		typ     uint32
		payload []byte
	}
	var secs []section
	if f.Problem != nil {
		p, err := marshalProblem(f.Problem)
		if err != nil {
			return nil, err
		}
		secs = append(secs, section{secProblem, p})
	}
	if f.Encoding != nil {
		p, err := marshalEncoding(f.Encoding)
		if err != nil {
			return nil, err
		}
		secs = append(secs, section{secEncoding, p})
	}
	if f.Audit != nil {
		p, err := marshalAudit(f.Audit)
		if err != nil {
			return nil, err
		}
		secs = append(secs, section{secAudit, p})
	}
	if f.CacheEntries != nil {
		p, err := marshalCacheEntries(f.CacheEntries)
		if err != nil {
			return nil, err
		}
		secs = append(secs, section{secCache, p})
	}
	if f.Batch != nil {
		if f.Batch.WallNS < 0 {
			return nil, fmt.Errorf("%w: negative batch wall %d", ErrCorrupt, f.Batch.WallNS)
		}
		var bw writer
		bw.u64(uint64(f.Batch.WallNS))
		secs = append(secs, section{secBatch, bw.b})
	}
	if err := crossCheck(f); err != nil {
		return nil, err
	}
	var w writer
	w.bytes([]byte(Magic))
	w.u16(Version)
	w.u16(0) // flags, reserved
	w.u32(uint32(len(secs)))
	for _, s := range secs {
		w.u32(s.typ)
		w.u64(uint64(len(s.payload)))
	}
	for _, s := range secs {
		w.bytes(s.payload)
	}
	return w.b, nil
}

// crossCheck enforces the inter-section invariants both directions of
// the codec require: an encoding's symbol count must match the
// problem's, and an audit must cover exactly the problem's constraints.
func crossCheck(f *File) error {
	if f.Problem != nil && f.Encoding != nil && f.Encoding.N() != len(f.Problem.Names) {
		return fmt.Errorf("%w: encoding covers %d symbols, problem has %d",
			ErrCorrupt, f.Encoding.N(), len(f.Problem.Names))
	}
	if f.Problem != nil && f.Audit != nil && len(f.Audit.Cubes) != len(f.Problem.Constraints) {
		return fmt.Errorf("%w: audit covers %d constraints, problem has %d",
			ErrCorrupt, len(f.Audit.Cubes), len(f.Problem.Constraints))
	}
	return nil
}

// ---------------------------------------------------------------------
// Unmarshal

type reader struct {
	b   []byte
	off int
}

func (r *reader) rem() int { return len(r.b) - r.off }

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.rem() < n {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrTruncated, n, r.off, r.rem())
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p, nil
}

func (r *reader) u8() (uint8, error) {
	p, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return p[0], nil
}

func (r *reader) u16() (uint16, error) {
	p, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(p), nil
}

func (r *reader) u32() (uint32, error) {
	p, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}

func (r *reader) u64() (uint64, error) {
	p, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

// count reads a u32 collection count and validates it against an
// absolute cap and a per-element byte budget, so a hostile count can
// never drive an allocation beyond the input's own size.
func (r *reader) count(what string, cap int, minElemBytes int) (int, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	n := int(v)
	if n > cap {
		return 0, fmt.Errorf("%w: %d %s exceeds limit %d", ErrCorrupt, n, what, cap)
	}
	if minElemBytes > 0 && n > r.rem()/minElemBytes {
		return 0, fmt.Errorf("%w: %d %s declared but only %d bytes remain",
			ErrTruncated, n, what, r.rem())
	}
	return n, nil
}

func (r *reader) str(what string) (string, error) {
	n, err := r.count(what, maxSymbols*64, 1)
	if err != nil {
		return "", err
	}
	p, err := r.take(n)
	if err != nil {
		return "", err
	}
	return string(p), nil
}

func unmarshalProblem(b []byte) (*face.Problem, error) {
	r := &reader{b: b}
	name, err := r.str("name bytes")
	if err != nil {
		return nil, err
	}
	nsym, err := r.count("symbols", maxSymbols, 4)
	if err != nil {
		return nil, err
	}
	p := &face.Problem{Name: name, Names: make([]string, 0, nsym)}
	for i := 0; i < nsym; i++ {
		s, err := r.str("symbol-name bytes")
		if err != nil {
			return nil, err
		}
		p.Names = append(p.Names, s)
	}
	words := wordsFor(nsym)
	ncons, err := r.count("constraints", maxConstraints, 4+8*words)
	if err != nil {
		return nil, err
	}
	p.Constraints = make([]face.Constraint, 0, ncons)
	p.Weights = make([]int, 0, ncons)
	for i := 0; i < ncons; i++ {
		wt, err := r.u32()
		if err != nil {
			return nil, err
		}
		if wt == 0 || wt > 1<<31 {
			return nil, fmt.Errorf("%w: constraint %d: weight %d outside [1, 2^31]",
				ErrCorrupt, i, wt)
		}
		c := face.NewConstraint(nsym)
		for wi := 0; wi < words; wi++ {
			v, err := r.u64()
			if err != nil {
				return nil, err
			}
			hi := nsym - wi*64
			if hi < 64 && v>>uint(hi) != 0 {
				return nil, fmt.Errorf("%w: constraint %d sets a bit beyond symbol %d",
					ErrCorrupt, i, nsym-1)
			}
			for ; v != 0; v &= v - 1 {
				c.Add(wi*64 + bits.TrailingZeros64(v))
			}
		}
		p.Constraints = append(p.Constraints, c)
		p.Weights = append(p.Weights, int(wt))
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return p, nil
}

func unmarshalEncoding(b []byte) (*face.Encoding, error) {
	r := &reader{b: b}
	n, err := r.count("codes", maxSymbols, 8)
	if err != nil {
		return nil, err
	}
	nv, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nv > 64 {
		return nil, fmt.Errorf("%w: code length %d exceeds 64", ErrCorrupt, nv)
	}
	mask := ^uint64(0)
	if nv < 64 {
		mask = uint64(1)<<uint(nv) - 1
	}
	e := &face.Encoding{NV: int(nv), Codes: make([]uint64, 0, n)}
	for i := 0; i < n; i++ {
		c, err := r.u64()
		if err != nil {
			return nil, err
		}
		if c&^mask != 0 {
			return nil, fmt.Errorf("%w: code %d (%#x) exceeds %d bits", ErrCorrupt, i, c, nv)
		}
		e.Codes = append(e.Codes, c)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return e, nil
}

func (r *reader) boolBits(n int) ([]bool, error) {
	out := make([]bool, n)
	words := wordsFor(n)
	for wi := 0; wi < words; wi++ {
		v, err := r.u64()
		if err != nil {
			return nil, err
		}
		hi := n - wi*64
		if hi < 64 && v>>uint(hi) != 0 {
			return nil, fmt.Errorf("%w: flag bitset sets a bit beyond element %d", ErrCorrupt, n-1)
		}
		for b := 0; b < 64 && wi*64+b < n; b++ {
			out[wi*64+b] = v>>uint(b)&1 == 1
		}
	}
	return out, nil
}

func unmarshalAudit(b []byte) (*Audit, error) {
	r := &reader{b: b}
	n, err := r.count("audited constraints", maxConstraints, 4)
	if err != nil {
		return nil, err
	}
	a := &Audit{}
	if a.Satisfied, err = r.boolBits(n); err != nil {
		return nil, err
	}
	if a.Infeasible, err = r.boolBits(n); err != nil {
		return nil, err
	}
	a.Cubes = make([]int, n)
	for i := range a.Cubes {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		a.Cubes[i] = int(v)
	}
	total, err := r.u64()
	if err != nil {
		return nil, err
	}
	weighted, err := r.u64()
	if err != nil {
		return nil, err
	}
	sat, err := r.u32()
	if err != nil {
		return nil, err
	}
	const maxInt = int(^uint(0) >> 1)
	if total > uint64(maxInt) || weighted > uint64(maxInt) {
		return nil, fmt.Errorf("%w: audit totals overflow int", ErrCorrupt)
	}
	if int(sat) > n {
		return nil, fmt.Errorf("%w: %d satisfied of %d constraints", ErrCorrupt, sat, n)
	}
	a.Total, a.WeightedTotal, a.SatisfiedCount = int(total), int(weighted), int(sat)
	if err := r.done(); err != nil {
		return nil, err
	}
	return a, nil
}

func unmarshalCacheEntries(b []byte) ([]eval.CacheEntry, error) {
	r := &reader{b: b}
	// Smallest legal entry: 2 header bytes + one word per bitset + count.
	n, err := r.count("cache entries", maxCacheEntries, 2+16+4)
	if err != nil {
		return nil, err
	}
	entries := make([]eval.CacheEntry, 0, n)
	// The bitset words of every entry share one slab. Each entry spends 6
	// bytes on its header and count and 8 per word, so a well-formed
	// payload holds exactly this many words; sizing from the payload keeps
	// the allocation bounded by the input however many entries it claims.
	slab := make([]uint64, (r.rem()-6*n)/8)
	for i := 0; i < n; i++ {
		policy, err := r.u8()
		if err != nil {
			return nil, err
		}
		if policy > 1 {
			return nil, fmt.Errorf("%w: entry %d: policy byte %d", ErrCorrupt, i, policy)
		}
		nv, err := r.u8()
		if err != nil {
			return nil, err
		}
		if nv < 1 || int(nv) > maxEntryNV {
			return nil, fmt.Errorf("%w: entry %d: nv %d outside [1, %d]",
				ErrCorrupt, i, nv, maxEntryNV)
		}
		words := wordsFor(1 << uint(nv))
		p, err := r.take(16 * words)
		if err != nil {
			return nil, err
		}
		if len(slab) < 2*words {
			return nil, fmt.Errorf("%w: entry %d: %d entries declared but the payload ends early",
				ErrTruncated, i, n)
		}
		for wi := range slab[:2*words] {
			slab[wi] = binary.LittleEndian.Uint64(p[8*wi:])
		}
		// Cap-limited, so appending to one entry's bitset never writes
		// into its neighbour's.
		ent := eval.CacheEntry{
			Heuristic: policy == 1,
			NV:        int(nv),
			Used:      slab[:words:words],
			On:        slab[words : 2*words : 2*words],
		}
		slab = slab[2*words:]
		cubes, err := r.u32()
		if err != nil {
			return nil, err
		}
		ent.Cubes = int(cubes)
		entries = append(entries, ent)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return entries, nil
}

func unmarshalBatch(b []byte) (*BatchStat, error) {
	r := &reader{b: b}
	wall, err := r.u64()
	if err != nil {
		return nil, err
	}
	const maxInt64 = uint64(1)<<63 - 1
	if wall > maxInt64 {
		return nil, fmt.Errorf("%w: batch wall %d overflows int64", ErrCorrupt, wall)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &BatchStat{WallNS: int64(wall)}, nil
}

// done rejects trailing bytes after a fully parsed payload.
func (r *reader) done() error {
	if r.rem() != 0 {
		return fmt.Errorf("%w: %d trailing bytes at offset %d", ErrCorrupt, r.rem(), r.off)
	}
	return nil
}

// Unmarshal parses a picola-ir container. Malformed input of any shape
// returns an error wrapping ErrTruncated, ErrCorrupt, or
// ErrFutureVersion — never a panic (the FuzzIRRoundTrip contract).
func Unmarshal(b []byte) (*File, error) {
	r := &reader{b: b}
	magic, err := r.take(len(Magic))
	if err != nil {
		return nil, err
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	version, err := r.u16()
	if err != nil {
		return nil, err
	}
	if version > Version {
		return nil, fmt.Errorf("%w: version %d, this build reads up to %d",
			ErrFutureVersion, version, Version)
	}
	if version == 0 {
		return nil, fmt.Errorf("%w: version 0", ErrCorrupt)
	}
	flags, err := r.u16()
	if err != nil {
		return nil, err
	}
	if flags != 0 {
		return nil, fmt.Errorf("%w: reserved flags %#x", ErrCorrupt, flags)
	}
	nsec, err := r.count("sections", maxSections, 12)
	if err != nil {
		return nil, err
	}
	type tableEntry struct {
		typ    uint32
		length uint64
	}
	table := make([]tableEntry, 0, nsec)
	var declared uint64
	for i := 0; i < nsec; i++ {
		typ, err := r.u32()
		if err != nil {
			return nil, err
		}
		length, err := r.u64()
		if err != nil {
			return nil, err
		}
		declared += length
		if declared > uint64(r.rem()) {
			return nil, fmt.Errorf("%w: section table declares %d payload bytes, %d remain",
				ErrTruncated, declared, r.rem())
		}
		table = append(table, tableEntry{typ, length})
	}
	f := &File{}
	var seen [secKnownMax + 1]bool
	for _, s := range table {
		payload, err := r.take(int(s.length))
		if err != nil {
			return nil, err
		}
		if s.typ >= 1 && s.typ <= secKnownMax {
			if seen[s.typ] {
				return nil, fmt.Errorf("%w: duplicate section type %d", ErrCorrupt, s.typ)
			}
			seen[s.typ] = true
		}
		switch s.typ {
		case secProblem:
			if f.Problem, err = unmarshalProblem(payload); err != nil {
				return nil, err
			}
		case secEncoding:
			if f.Encoding, err = unmarshalEncoding(payload); err != nil {
				return nil, err
			}
		case secAudit:
			if f.Audit, err = unmarshalAudit(payload); err != nil {
				return nil, err
			}
		case secCache:
			if f.CacheEntries, err = unmarshalCacheEntries(payload); err != nil {
				return nil, err
			}
		case secBatch:
			if f.Batch, err = unmarshalBatch(payload); err != nil {
				return nil, err
			}
		default:
			// Unknown type: skip the payload (v1-compatible extension room).
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := crossCheck(f); err != nil {
		return nil, err
	}
	return f, nil
}
