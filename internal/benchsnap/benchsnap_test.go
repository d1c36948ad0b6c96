package benchsnap

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustParse(t *testing.T, b []byte) *Snapshot {
	t.Helper()
	s, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustMarshal(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := Write("-", s, &b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCommittedSnapshotsRoundTrip: every committed trajectory snapshot
// parses strictly, and both the canonical writer and a one-input Merge
// reproduce its bytes exactly — the BENCH_*.json files are canonical.
func TestCommittedSnapshotsRoundTrip(t *testing.T) {
	for i := 0; i <= 4; i++ {
		path := filepath.Join("..", "..", fmt.Sprintf("BENCH_%d.json", i))
		b := readFile(t, path)
		s, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Table != 1 || len(s.Rows) != 33 {
			t.Fatalf("%s: table %d with %d rows, want table 1 with 33", path, s.Table, len(s.Rows))
		}
		if got := mustMarshal(t, s); !bytes.Equal(got, b) {
			t.Fatalf("%s: canonical write differs from the committed bytes", path)
		}
		m, err := Merge(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustMarshal(t, m); !bytes.Equal(got, b) {
			t.Fatalf("%s: merging the snapshot alone changed its bytes", path)
		}
	}
}

// TestMergeTable2Snapshot: a Table II snapshot (rows in the paper's
// order, states and products set) survives Merge byte for byte, and so
// does its split into two inputs whose rows are each in name order.
func TestMergeTable2Snapshot(t *testing.T) {
	b := readFile(t, filepath.Join("testdata", "table2.json"))
	s := mustParse(t, b)
	if s.Table != 2 || s.Rows[0].States == 0 || s.Rows[0].Encoders["picola"].Products == 0 {
		t.Fatalf("golden is not a Table II snapshot: %+v", s.Rows[0])
	}
	m, err := Merge(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustMarshal(t, m); !bytes.Equal(got, b) {
		t.Fatalf("merged Table II snapshot differs:\n%s", got)
	}

	// Split by name parity into two name-sorted shards: the merge is the
	// name-sorted union.
	sorted := mustParse(t, b)
	sort.Slice(sorted.Rows, func(i, j int) bool { return sorted.Rows[i].FSM < sorted.Rows[j].FSM })
	a := &Snapshot{Schema: Schema, Table: 2}
	c := &Snapshot{Schema: Schema, Table: 2}
	for i, r := range sorted.Rows {
		if i%2 == 0 {
			a.Rows = append(a.Rows, r)
		} else {
			c.Rows = append(c.Rows, r)
		}
	}
	m, err = Merge(c, a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustMarshal(t, m), mustMarshal(t, sorted); !bytes.Equal(got, want) {
		t.Fatalf("merged shards differ from the name-sorted snapshot:\n%s", got)
	}
}

func TestMergeRejects(t *testing.T) {
	row := func(name string) Row {
		return Row{FSM: name, Encoders: map[string]Stat{"picola": {Cubes: 3}}}
	}
	t1 := &Snapshot{Schema: Schema, Table: 1, Rows: []Row{row("a"), row("b")}}
	cases := []struct {
		name  string
		snaps []*Snapshot
		want  string
	}{
		{"overlapping-rows", []*Snapshot{t1, {Schema: Schema, Table: 1, Rows: []Row{row("b")}}}, `"b" appears in both input 1 and input 2`},
		{"mixed-tables", []*Snapshot{t1, {Schema: Schema, Table: 2, Rows: []Row{row("c")}}}, "input 2 is a table 2 snapshot"},
		{"no-inputs", nil, "nothing to merge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Merge(tc.snaps...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Merge error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, input, want string
	}{
		{"wrong-schema", `{"schema":"picola-bench/v2","table":1,"rows":[]}`, "unsupported schema"},
		{"no-schema", `{"table":1,"rows":[]}`, "unsupported schema"},
		{"unknown-top-field", `{"schema":"picola-bench/v1","table":1,"rows":[],"host":"x"}`, `unknown field "host"`},
		{"unknown-row-field", `{"schema":"picola-bench/v1","table":1,"rows":[{"fsm":"a","inputs":3,"encoders":{}}]}`, `unknown field "inputs"`},
		{"unknown-stat-field", `{"schema":"picola-bench/v1","table":1,"rows":[{"fsm":"a","encoders":{"picola":{"cubes":1,"wall_ns":0,"p50_ns":1}}}]}`, `unknown field "p50_ns"`},
		{"trailing-data", `{"schema":"picola-bench/v1","table":1,"rows":[]} {}`, "trailing data"},
		{"trailing-brace", `{"schema":"picola-bench/v1","table":1,"rows":[]}}`, "trailing data"},
		{"malformed", `{"schema":"picola-bench/v1","table":1,"rows":[{`, "unexpected EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.input))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestWriteBatchRow pins the canonical bytes of a cmd/batch-shaped
// snapshot (table 0 written, the Table I/II-only fields omitted) and
// checks that "-" and a file path receive the same bytes.
func TestWriteBatchRow(t *testing.T) {
	s := &Snapshot{Schema: Schema, Rows: []Row{{FSM: "inst-1", Constraints: 2,
		Encoders: map[string]Stat{"picola": {Cubes: 4}}}}}
	var out bytes.Buffer
	if err := Write("-", s, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.json")
	if err := Write(path, s, nil); err != nil {
		t.Fatal(err)
	}
	if file := readFile(t, path); !bytes.Equal(out.Bytes(), file) {
		t.Fatalf("stdout and file bytes differ:\n%s\nvs\n%s", out.Bytes(), file)
	}
	want := `{
  "schema": "picola-bench/v1",
  "table": 0,
  "rows": [
    {
      "fsm": "inst-1",
      "constraints": 2,
      "encoders": {
        "picola": {
          "cubes": 4,
          "wall_ns": 0
        }
      }
    }
  ]
}
`
	if out.String() != want {
		t.Fatalf("canonical bytes:\n%s\nwant:\n%s", out.String(), want)
	}
}
