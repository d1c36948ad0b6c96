package report

import (
	"strings"
	"testing"
)

// String renders to a string in the given format.
func (t *Table) String(f Format) string {
	var sb strings.Builder
	_ = t.Render(&sb, f)
	return sb.String()
}

func sampleTable() *Table {
	t := &Table{
		Title:  "Demo",
		Header: []string{"FSM", "cubes", "ratio"},
		Footer: []string{"total: 30"},
	}
	t.Add("bbara", "15", "1.03")
	t.Add("dk16", "15", "0.97")
	return t
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{"": Text, "text": Text, "md": Markdown, "markdown": Markdown, "csv": CSV} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("unknown format must error")
	}
}

func TestRenderTextAlignment(t *testing.T) {
	out := sampleTable().String(Text)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "Demo" {
		t.Fatalf("title missing:\n%s", out)
	}
	// Numeric columns right-align: "cubes" ends in the same column on
	// every row.
	if !strings.Contains(lines[1], "FSM") || !strings.Contains(lines[2], "bbara") {
		t.Fatalf("rows wrong:\n%s", out)
	}
	if !strings.HasSuffix(lines[len(lines)-1], "total: 30") {
		t.Fatalf("footer missing:\n%s", out)
	}
	// Right alignment check: the numeric cell "15" is preceded by spaces
	// up to the header width of "cubes".
	if !strings.Contains(lines[2], "   15") {
		t.Fatalf("numeric column not right-aligned:\n%s", out)
	}
}

func TestRenderMarkdown(t *testing.T) {
	out := sampleTable().String(Markdown)
	if !strings.Contains(out, "### Demo") {
		t.Fatalf("title missing:\n%s", out)
	}
	if !strings.Contains(out, "| FSM | cubes | ratio |") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "| :--- | ---: | ---: |") {
		t.Fatalf("alignment row wrong:\n%s", out)
	}
	if !strings.Contains(out, "| bbara | 15 | 1.03 |") {
		t.Fatalf("row missing:\n%s", out)
	}
}

func TestRenderCSV(t *testing.T) {
	tab := sampleTable()
	tab.Add(`we"ird,name`, "1", "2")
	out := tab.String(CSV)
	if !strings.Contains(out, "FSM,cubes,ratio") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, `"we""ird,name",1,2`) {
		t.Fatalf("quoting wrong:\n%s", out)
	}
	if strings.Contains(out, "total: 30") {
		t.Fatal("CSV must not include footers")
	}
}

func TestLooksNumeric(t *testing.T) {
	for _, s := range []string{"1", "-2.5", "+3", "12%", "0.5"} {
		if !looksNumeric(s) {
			t.Errorf("%q should be numeric", s)
		}
	}
	for _, s := range []string{"", "-", ".", "1.2.3", "1a", "fails"} {
		if looksNumeric(s) {
			t.Errorf("%q should not be numeric", s)
		}
	}
}

func TestMixedColumnLeftAligns(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}}
	tab.Add("x", "1")
	tab.Add("y", "fails")
	out := tab.String(Markdown)
	if !strings.Contains(out, "| :--- | :--- |") {
		t.Fatalf("column with non-numeric cell must left-align:\n%s", out)
	}
}
