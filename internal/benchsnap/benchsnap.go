// Package benchsnap is the only code that knows the picola-bench/v1
// snapshot format, the record of one cmd/tables or cmd/batch run that
// the BENCH_*.json trajectory files accumulate: its types, the strict
// reader, the canonical writer, the shard merge, and the quality diff
// that gates every change on zero cube and product deltas.
package benchsnap

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Schema is the value of every snapshot's "schema" field.
const Schema = "picola-bench/v1"

// Snapshot is one table run. Table is the paper's table number (1 or 2)
// for cmd/tables snapshots and 0 for a cmd/batch corpus.
type Snapshot struct {
	Schema string `json:"schema"`
	Table  int    `json:"table"`
	Rows   []Row  `json:"rows"`
}

// Row is one benchmark's (or corpus instance's) results across the
// table's encoders. Constraints is set on Table I and corpus rows,
// States on Table II rows.
type Row struct {
	FSM         string          `json:"fsm"`
	Constraints int             `json:"constraints,omitempty"`
	States      int             `json:"states,omitempty"`
	Encoders    map[string]Stat `json:"encoders"`
}

// Stat is one encoder's measurement on one row. Cubes is the Table I
// constraint-implementation metric; Products the Table II encoded
// two-level size; WallNS the encode wall time (zero in batch snapshots,
// which must be byte-identical however the corpus was run); Completed
// records whether ENC finished within its budget (Table I only).
type Stat struct {
	Cubes     int   `json:"cubes,omitempty"`
	Products  int   `json:"products,omitempty"`
	WallNS    int64 `json:"wall_ns"`
	Completed *bool `json:"completed,omitempty"`
}

// Parse decodes a snapshot strictly: unknown fields, trailing data and
// any schema other than Schema are errors.
func Parse(b []byte) (*Snapshot, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if len(bytes.TrimSpace(b[dec.InputOffset():])) > 0 {
		return nil, fmt.Errorf("trailing data after the snapshot")
	}
	if s.Schema != Schema {
		return nil, fmt.Errorf("unsupported schema %q", s.Schema)
	}
	return &s, nil
}

// Read reads and parses the snapshot at path; errors name the file.
func Read(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Write writes the canonical bytes of s — two-space-indented JSON with
// encoders in name order and a trailing newline — to path, or to stdout
// when path is "-".
func Write(path string, s *Snapshot, stdout io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Merge unions snapshots of one table whose row names are disjoint (the
// per-shard snapshots of one corpus). Rows are merged by name the way a
// merge sort merges runs: inputs that list their rows in name order —
// every batch snapshot does — give a name-sorted result, so a sharded
// run merges to the unsharded run's bytes, and a single input comes
// back unchanged.
func Merge(snaps ...*Snapshot) (*Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("nothing to merge")
	}
	out := &Snapshot{Schema: Schema, Table: snaps[0].Table}
	seen := make(map[string]int)
	total := 0
	for i, s := range snaps {
		if s.Table != out.Table {
			return nil, fmt.Errorf("input %d is a table %d snapshot, input 1 a table %d one", i+1, s.Table, out.Table)
		}
		for _, r := range s.Rows {
			if j, dup := seen[r.FSM]; dup {
				return nil, fmt.Errorf("row %q appears in both input %d and input %d", r.FSM, j+1, i+1)
			}
			seen[r.FSM] = i
		}
		total += len(s.Rows)
	}
	out.Rows = make([]Row, 0, total)
	next := make([]int, len(snaps))
	for len(out.Rows) < total {
		best := -1
		for i, s := range snaps {
			if next[i] < len(s.Rows) && (best < 0 || s.Rows[next[i]].FSM < snaps[best].Rows[next[best]].FSM) {
				best = i
			}
		}
		out.Rows = append(out.Rows, snaps[best].Rows[next[best]])
		next[best]++
	}
	return out, nil
}

// Diff compares two snapshots of the same table and writes a report to
// w. Quality metrics (cubes, products) are the regression gate: every
// per-row, per-encoder delta, every row or encoder present on one side
// only, is reported and counted as a mismatch. Wall times are expected
// to move; the report ends with the aggregate wall speedup of newSnap
// over oldSnap instead. Rows pair by FSM name in oldSnap's order;
// encoders print in name order; newName labels newSnap in the report.
// The error return is reserved for snapshots of different tables and a
// failed write of the report.
func Diff(w io.Writer, oldSnap, newSnap *Snapshot, newName string) (mismatches int, err error) {
	if oldSnap.Table != newSnap.Table {
		return 0, fmt.Errorf("snapshots are of different tables: %d vs %d", oldSnap.Table, newSnap.Table)
	}
	bw := bufio.NewWriter(w)
	newRows := make(map[string]Row, len(newSnap.Rows))
	for _, r := range newSnap.Rows {
		newRows[r.FSM] = r
	}
	var oldWall, newWall int64
	stats := 0
	for _, or := range oldSnap.Rows {
		nr, ok := newRows[or.FSM]
		if !ok {
			fmt.Fprintf(bw, "%-12s missing from %s\n", or.FSM, newName)
			mismatches++
			continue
		}
		delete(newRows, or.FSM)
		for _, name := range sortedKeys(or.Encoders) {
			ns, ok := nr.Encoders[name]
			if !ok {
				fmt.Fprintf(bw, "%-12s %-10s missing from %s\n", or.FSM, name, newName)
				mismatches++
				continue
			}
			os1 := or.Encoders[name]
			stats++
			oldWall += os1.WallNS
			newWall += ns.WallNS
			if dc, dp := ns.Cubes-os1.Cubes, ns.Products-os1.Products; dc != 0 || dp != 0 {
				fmt.Fprintf(bw, "%-12s %-10s cubes %d -> %d (%+d)  products %d -> %d (%+d)\n",
					or.FSM, name, os1.Cubes, ns.Cubes, dc, os1.Products, ns.Products, dp)
				mismatches++
			}
		}
		for _, name := range sortedKeys(nr.Encoders) {
			if _, ok := or.Encoders[name]; !ok {
				fmt.Fprintf(bw, "%-12s %-10s only in %s\n", or.FSM, name, newName)
				mismatches++
			}
		}
	}
	for _, fsm := range sortedKeys(newRows) {
		fmt.Fprintf(bw, "%-12s only in %s\n", fsm, newName)
		mismatches++
	}
	fmt.Fprintf(bw, "table %d: %d rows, %d measurements compared, %d mismatches\n",
		oldSnap.Table, len(oldSnap.Rows), stats, mismatches)
	if newWall > 0 {
		fmt.Fprintf(bw, "wall: old=%v new=%v speedup=%.2fx\n",
			time.Duration(oldWall).Round(time.Millisecond),
			time.Duration(newWall).Round(time.Millisecond),
			float64(oldWall)/float64(newWall))
	}
	return mismatches, bw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
