// Package stassign is the state-assignment tool built on PICOLA that the
// paper evaluates in Table II: KISS2 machine in, encoded and minimized
// two-level implementation out.
//
// The flow is the classical one: extract face constraints by multi-valued
// symbolic minimization (internal/symbolic), encode the states with the
// selected encoder at minimum code length, substitute the codes into the
// transition table, and minimize the resulting binary cover with espresso.
// The reported size is the product-term count of the minimized cover and
// the corresponding PLA area (2·inputs + outputs columns per term).
package stassign

import (
	"context"
	"fmt"
	"sort"
	"time"

	"picola/internal/baseline/enc"
	"picola/internal/baseline/nova"
	"picola/internal/core"
	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/espresso"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/kiss"
	"picola/internal/obs"
	"picola/internal/optenc"
	"picola/internal/symbolic"
)

// Flow stage timers for the -v wall-clock summary.
var (
	tExtract  = obs.Default.Timer("stassign.stage.extract")
	tEncode   = obs.Default.Timer("stassign.stage.encode")
	tMinimize = obs.Default.Timer("stassign.stage.minimize")
)

// Encoder selects the state-encoding algorithm.
type Encoder int

// Encoders: Picola is the paper's tool ("NEW" in Table II); NovaIH and
// NovaIOH emulate NOVA -e ih / -e ioh; Enc is the minimization-in-the-loop
// baseline; Natural is the specification-order reference encoding.
const (
	Picola Encoder = iota
	NovaIH
	NovaIOH
	Enc
	Natural
	// Optimal is the exhaustive reference encoder (machines with at most
	// optenc.MaxSymbols states).
	Optimal
)

// String names the encoder as in the paper's tables.
func (e Encoder) String() string {
	switch e {
	case Picola:
		return "picola"
	case NovaIH:
		return "nova-ih"
	case NovaIOH:
		return "nova-ioh"
	case Enc:
		return "enc"
	case Natural:
		return "natural"
	case Optimal:
		return "optimal"
	default:
		return fmt.Sprintf("encoder(%d)", int(e))
	}
}

// Options tune the flow.
type Options struct {
	Encoder Encoder
	// Seed drives the randomized encoders (NOVA, ENC).
	Seed int64
	// EncBudget bounds the ENC baseline's espresso evaluations (0 =
	// package default).
	EncBudget int
	// Trace receives the PICOLA encoder's structured trace events (only
	// the Picola encoder is instrumented). Nil means tracing off.
	Trace obs.Tracer
	// Workers bounds the encoder's internal parallel fan-out (the PICOLA
	// portfolio, ENC's candidate scoring); ≤ 1 is sequential. Results
	// are identical at every worker count.
	Workers int
	// Cache memoizes constraint minimizations across encoders and runs
	// (nil = none); memoized counts are pure functions of their input.
	Cache *eval.Cache
}

// Report is the outcome of one state assignment.
type Report struct {
	Name        string
	Encoder     Encoder
	States      int
	Constraints int
	// SatisfiedConstraints under the chosen encoding.
	SatisfiedConstraints int
	Encoding             *face.Encoding
	// Cover is the minimized two-level cover of the encoded machine
	// (inputs ++ state bits -> next-state bits ++ outputs; its domain is
	// Cover.D). Products is its product-term count and Area is
	// Products × (2·(inputs+bits) + bits+outputs).
	Cover    *cover.Cover
	Products int
	Area     int
	// EncodeTime covers constraint extraction + encoding; TotalTime adds
	// the final minimization.
	EncodeTime time.Duration
	TotalTime  time.Duration
	// EncCompleted is false when the ENC baseline ran out of budget (the
	// paper reports ENC "fails" on its largest instance).
	EncCompleted bool
}

// Assign runs the full state-assignment flow on m.
func Assign(m *kiss.FSM, o Options) (*Report, error) {
	return AssignContext(context.Background(), m, o)
}

// AssignContext is Assign under a run context: the encode and minimize
// stages inherit the context's deadline checks, so a cancelled flow
// returns a wrapped context error and no report.
func AssignContext(ctx context.Context, m *kiss.FSM, o Options) (*Report, error) {
	start := time.Now()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	stopExtract := tExtract.Start()
	prob, _, err := symbolic.ExtractConstraints(m)
	stopExtract()
	if err != nil {
		return nil, err
	}
	stopEncode := tEncode.Start()
	e, completed, err := EncodeProblem(ctx, m, prob, o)
	stopEncode()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Name:         m.Name,
		Encoder:      o.Encoder,
		States:       m.NumStates(),
		Constraints:  len(prob.Constraints),
		Encoding:     e,
		EncodeTime:   time.Since(start),
		EncCompleted: completed,
	}
	for _, c := range prob.Constraints {
		if e.Satisfied(c) {
			rep.SatisfiedConstraints++
		}
	}
	stopMin := tMinimize.Start()
	min, _, err := MinimizeEncodedContext(ctx, m, e)
	stopMin()
	if err != nil {
		return nil, err
	}
	rep.Cover = min
	rep.Products = min.Len()
	ni := m.NumInputs + e.NV
	no := e.NV + m.NumOutputs
	rep.Area = rep.Products * (2*ni + no)
	rep.TotalTime = time.Since(start)
	return rep, nil
}

// ParseEncoder returns the encoder whose String is name.
func ParseEncoder(name string) (Encoder, error) {
	for e := Picola; e <= Optimal; e++ {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown encoder %q", name)
}

// EncodeProblem encodes the states with o.Encoder, given prob, the face
// constraints extracted from m. It is the flow's one encoder dispatch:
// AssignContext runs it on a machine, and a -check shrink runs it on
// constraint-level instances with m nil, where NovaIOH has no output
// pairs and so anneals on the input-hybrid objective alone. The bool is
// false when the ENC baseline ran out of budget.
func EncodeProblem(ctx context.Context, m *kiss.FSM, prob *face.Problem, o Options) (*face.Encoding, bool, error) {
	switch o.Encoder {
	case Picola:
		// The exact-cost polish optimizes the constraint-cube metric,
		// which is a proxy here — the flow minimizes the full encoded
		// machine afterwards — so the cheap estimate-based refinement
		// alone keeps the tool's runtime advantage (paper Table II).
		r, err := core.EncodeContext(ctx, prob, core.Options{ExactPolishBudget: -1, Trace: o.Trace,
			Workers: o.Workers, Cache: o.Cache})
		if err != nil {
			return nil, false, err
		}
		return r.Encoding, true, nil
	case NovaIH:
		e, err := nova.Encode(prob, nova.Options{Variant: nova.IHybrid, Seed: o.Seed})
		return e, true, err
	case NovaIOH:
		var pairs []nova.Pair
		if m != nil {
			pairs = OutputPairs(m)
		}
		e, err := nova.Encode(prob, nova.Options{Variant: nova.IOHybrid, Seed: o.Seed, OutputPairs: pairs})
		return e, true, err
	case Enc:
		r, err := enc.Encode(prob, enc.Options{Seed: o.Seed, Budget: o.EncBudget,
			Workers: o.Workers, Cache: o.Cache})
		if err != nil {
			return nil, false, err
		}
		return r.Encoding, r.Completed, nil
	case Natural:
		e := face.NewEncoding(prob.N(), prob.MinLength())
		for s := 0; s < prob.N(); s++ {
			e.Codes[s] = uint64(s)
		}
		return e, true, nil
	case Optimal:
		r, err := optenc.Optimal(prob)
		if err != nil {
			return nil, false, err
		}
		return r.Encoding, true, nil
	default:
		return nil, false, fmt.Errorf("stassign: unknown encoder %v", o.Encoder)
	}
}

// OutputPairs derives the NOVA io-hybrid surrogate output constraints:
// states that are next states of a common present state should receive
// adjacent codes (their next-state logic then shares cubes). The weight of
// a pair counts how many present states feed both.
func OutputPairs(m *kiss.FSM) []nova.Pair {
	idx := func(s string) int { return m.StateIndex(s) }
	counts := map[[2]int]int{}
	for _, st := range m.States {
		targets := map[int]bool{}
		for _, t := range m.TransitionsFrom(st) {
			if t.To != "*" {
				targets[idx(t.To)] = true
			}
		}
		var list []int
		for to := range targets {
			list = append(list, to)
		}
		for i := 0; i < len(list); i++ {
			for j := 0; j < len(list); j++ {
				if list[i] < list[j] {
					counts[[2]int{list[i], list[j]}]++
				}
			}
		}
	}
	// Deterministic order: sort the pair keys before emitting.
	var keys [][2]int
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	pairs := make([]nova.Pair, 0, len(keys))
	for _, k := range keys {
		pairs = append(pairs, nova.Pair{A: k[0], B: k[1], Weight: float64(counts[k])})
	}
	return pairs
}

// BuildEncoded substitutes the state codes into the transition table and
// returns the binary multi-output function of the encoded machine:
// inputs ++ state bits -> next-state bits ++ outputs, with explicit ON,
// DC and OFF covers (unused state codes are entirely don't-care; input
// regions no transition covers assert nothing).
func BuildEncoded(m *kiss.FSM, e *face.Encoding) (*cube.Domain, *cover.Cover, *cover.Cover, *cover.Cover, error) {
	ni := m.NumInputs
	nv := e.NV
	no := m.NumOutputs
	d := cube.WithOutputs(ni+nv, nv+no)
	on, dc, off := cover.New(d), cover.New(d), cover.New(d)
	ov := ni + nv // output variable index
	bin := cube.Binary(ni)
	inputCubes := map[string]*cover.Cover{}
	for _, t := range m.Transitions {
		base := d.NewCube()
		inCube := bin.Universe()
		for v := 0; v < ni; v++ {
			switch t.Input[v] {
			case '0':
				d.Set(base, v, 0)
				bin.SetBinLit(inCube, v, cube.LitZero)
			case '1':
				d.Set(base, v, 1)
				bin.SetBinLit(inCube, v, cube.LitOne)
			default:
				d.Set(base, v, 0)
				d.Set(base, v, 1)
			}
		}
		from := m.StateIndex(t.From)
		for b := 0; b < nv; b++ {
			d.Set(base, ni+b, e.Bit(from, b))
		}
		if inputCubes[t.From] == nil {
			inputCubes[t.From] = cover.New(bin)
		}
		inputCubes[t.From].Add(inCube)
		onC, dcC, offC := base.Clone(), base.Clone(), base.Clone()
		var hasOn, hasDC, hasOff bool
		if t.To == "*" {
			for b := 0; b < nv; b++ {
				d.Set(dcC, ov, b)
			}
			hasDC = true
		} else {
			to := m.StateIndex(t.To)
			for b := 0; b < nv; b++ {
				if e.Bit(to, b) == 1 {
					d.Set(onC, ov, b)
					hasOn = true
				} else {
					d.Set(offC, ov, b)
					hasOff = true
				}
			}
		}
		for j := 0; j < no; j++ {
			switch t.Output[j] {
			case '1':
				d.Set(onC, ov, nv+j)
				hasOn = true
			case '-':
				d.Set(dcC, ov, nv+j)
				hasDC = true
			default:
				d.Set(offC, ov, nv+j)
				hasOff = true
			}
		}
		if hasOn {
			on.Add(onC)
		}
		if hasDC {
			dc.Add(dcC)
		}
		if hasOff {
			off.Add(offC)
		}
	}
	// Uncovered input regions of used state codes assert nothing.
	for _, st := range m.States {
		var uncovered *cover.Cover
		if ic := inputCubes[st]; ic != nil {
			uncovered = ic.Complement()
		} else {
			uncovered = cover.New(bin)
			uncovered.Add(bin.Universe())
		}
		si := m.StateIndex(st)
		for _, u := range uncovered.Cubes {
			row := d.NewCube()
			copyInputs(d, bin, row, u, ni)
			for b := 0; b < nv; b++ {
				d.Set(row, ni+b, e.Bit(si, b))
			}
			for j := 0; j < nv+no; j++ {
				d.Set(row, ov, j)
			}
			off.Add(row)
		}
	}
	// Unused state codes are entirely don't-care. Their region is the
	// complement of the used-code cover over the state bits — computed as
	// cubes rather than enumerated codes, so wide encodings stay cheap.
	stateDom := cube.Binary(nv)
	usedCover := cover.New(stateDom)
	for s := 0; s < e.N(); s++ {
		c := stateDom.NewCube()
		for b := 0; b < nv; b++ {
			stateDom.Set(c, b, e.Bit(s, b))
		}
		usedCover.Add(c)
	}
	for _, u := range usedCover.Complement().Cubes {
		row := d.NewCube()
		for v := 0; v < ni; v++ {
			d.Set(row, v, 0)
			d.Set(row, v, 1)
		}
		for b := 0; b < nv; b++ {
			switch stateDom.BinLit(u, b) {
			case cube.LitZero:
				d.Set(row, ni+b, 0)
			case cube.LitOne:
				d.Set(row, ni+b, 1)
			default:
				d.Set(row, ni+b, 0)
				d.Set(row, ni+b, 1)
			}
		}
		for j := 0; j < nv+no; j++ {
			d.Set(row, ov, j)
		}
		dc.Add(row)
	}
	return d, on, dc, off, nil
}

func copyInputs(d *cube.Domain, bin *cube.Domain, row, u cube.Cube, ni int) {
	for v := 0; v < ni; v++ {
		switch bin.BinLit(u, v) {
		case cube.LitZero:
			d.Set(row, v, 0)
		case cube.LitOne:
			d.Set(row, v, 1)
		default:
			d.Set(row, v, 0)
			d.Set(row, v, 1)
		}
	}
}

// MinimizeEncoded builds the encoded machine's function and minimizes it,
// returning the minimized cover and its domain.
func MinimizeEncoded(m *kiss.FSM, e *face.Encoding) (*cover.Cover, *cube.Domain, error) {
	return MinimizeEncodedContext(context.Background(), m, e)
}

// MinimizeEncodedContext is MinimizeEncoded under a run context; the
// deadline is checked at the espresso minimization boundary.
func MinimizeEncodedContext(ctx context.Context, m *kiss.FSM, e *face.Encoding) (*cover.Cover, *cube.Domain, error) {
	d, on, dc, off, err := BuildEncoded(m, e)
	if err != nil {
		return nil, nil, err
	}
	f := &espresso.Function{D: d, On: on, DC: dc, Off: off}
	min, err := espresso.MinimizeContext(ctx, f)
	if err != nil {
		return nil, nil, err
	}
	return min, d, nil
}
