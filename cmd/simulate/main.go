// Command simulate drives a KISS2 machine (and optionally its encoded
// BLIF netlist) cycle by cycle.
//
//	simulate machine.kiss                      random 20-cycle trace
//	simulate -vectors 0110,1010 machine.kiss   explicit input vectors
//	simulate -bench keyb -cycles 8             synthetic benchmark
//	simulate -verify -bench bbara              co-simulate the PICOLA-
//	                                           encoded netlist and check
//	                                           equivalence
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"picola/internal/benchgen"
	"picola/internal/blif"
	"picola/internal/kiss"
	"picola/internal/sim"
	"picola/internal/stassign"
)

func main() {
	bench := flag.String("bench", "", "use a named synthetic benchmark instead of a file")
	vectors := flag.String("vectors", "", "comma-separated input vectors (random when empty)")
	cycles := flag.Int("cycles", 20, "cycles to simulate with random inputs")
	seed := flag.Int64("seed", 1, "random-input seed")
	verify := flag.Bool("verify", false, "co-simulate the PICOLA-encoded netlist and compare")
	flag.Parse()

	m, err := loadMachine(*bench, flag.Args())
	if err != nil {
		fatal(err)
	}
	var inputs []string
	if *vectors != "" {
		inputs = strings.Split(*vectors, ",")
		for _, v := range inputs {
			if len(v) != m.NumInputs {
				fatal(fmt.Errorf("vector %q has %d bits, machine has %d inputs", v, len(v), m.NumInputs))
			}
		}
	} else {
		r := rand.New(rand.NewSource(*seed))
		for c := 0; c < *cycles; c++ {
			b := make([]byte, m.NumInputs)
			for i := range b {
				b[i] = byte('0' + r.Intn(2))
			}
			inputs = append(inputs, string(b))
		}
	}

	var mod *blif.Model
	var st map[string]bool
	if *verify {
		rep, err := stassign.Assign(m, stassign.Options{Encoder: stassign.Picola})
		if err != nil {
			fatal(err)
		}
		mod = blif.FromEncoded(m, rep.Encoding, rep.Cover.D, rep.Cover)
		st = mod.ResetState()
		fmt.Printf("# netlist: %d product terms, %d state bits\n", rep.Cover.Len(), rep.Encoding.NV)
	}

	ms := sim.NewMachine(m)
	fmt.Printf("%-6s %-*s %-12s %-*s %-12s %s\n",
		"cycle", m.NumInputs+2, "in", "state", m.NumOutputs+2, "out", "next", "netlist")
	mismatches := 0
	for c, in := range inputs {
		state := ms.State
		out, next, matched := ms.Step(in)
		netCol := "-"
		if mod != nil {
			inMap := map[string]bool{}
			for i := 0; i < m.NumInputs; i++ {
				inMap[mod.Inputs[i]] = in[i] == '1'
			}
			values := mod.StepSequential(inMap, st)
			var nb strings.Builder
			for j := 0; j < m.NumOutputs; j++ {
				if values[mod.Outputs[j]] {
					nb.WriteByte('1')
				} else {
					nb.WriteByte('0')
				}
			}
			netCol = nb.String()
			if matched {
				for j := 0; j < m.NumOutputs; j++ {
					if out[j] != '-' && out[j] != netCol[j] {
						mismatches++
						netCol += " MISMATCH"
						break
					}
				}
			}
			if !matched || next == "*" {
				ms.State = m.ResetState()
				for k, v := range mod.ResetState() {
					st[k] = v
				}
			}
		}
		fmt.Printf("%-6d %-*s %-12s %-*s %-12s %s\n",
			c, m.NumInputs+2, in, state, m.NumOutputs+2, out, next, netCol)
	}
	if mod != nil {
		if mismatches > 0 {
			fatal(fmt.Errorf("%d output mismatches", mismatches))
		}
		fmt.Println("# netlist agreed on every specified output")
	}
}

func loadMachine(bench string, args []string) (*kiss.FSM, error) {
	if bench != "" {
		spec, ok := benchgen.ByName(bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", bench)
		}
		return benchgen.Generate(spec), nil
	}
	if len(args) == 0 {
		return nil, fmt.Errorf("need a KISS2 file or -bench name")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kiss.Parse(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simulate:", err)
	os.Exit(1)
}
