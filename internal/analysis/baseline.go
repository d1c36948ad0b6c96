package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The baseline is the second suppression channel, next to lint:ignore:
// a checked-in inventory of accepted findings, one tab-separated line
// per finding:
//
//	<analyzer>\t<module-relative file>\t<message>
//
// A lint:ignore directive is the right tool for a single line the
// author controls; the baseline is for findings whose justification is
// architectural (e.g. a deliberately process-lifetime goroutine) and
// for ratcheting: picolint -write-baseline captures today's findings,
// CI fails on anything new, and — because a baseline entry that matches
// nothing is itself reported — the file can only shrink as findings are
// fixed. Lines and line columns are deliberately absent from the key so
// unrelated edits above a finding do not invalidate it.
type Baseline struct {
	// Path is where the baseline was loaded from (for messages).
	Path      string
	remaining map[string]int // key -> remaining match budget
	lines     []string       // original keys in file order
}

func baselineKey(analyzer, file, message string) string {
	return analyzer + "\t" + file + "\t" + message
}

// relFile maps a diagnostic filename to the module-relative form used
// in baseline keys (stable across checkouts).
func relFile(moduleDir, filename string) string {
	if rel, err := filepath.Rel(moduleDir, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// LoadBaseline reads a baseline file. A missing file yields an empty
// baseline (every finding is new); a malformed line is an error — the
// file is an enforcement input, not advisory.
func LoadBaseline(path string) (*Baseline, error) {
	b := &Baseline{Path: path, remaining: map[string]int{}}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return b, nil
		}
		return nil, err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, "\t") != 2 {
			return nil, fmt.Errorf("%s:%d: malformed baseline line (want analyzer\\tfile\\tmessage)", path, i+1)
		}
		b.remaining[line]++
		b.lines = append(b.lines, line)
	}
	return b, nil
}

// Filter drops the diagnostics the baseline accepts, consuming each
// entry's match budget. Call Stale afterwards — on whole-module runs
// only, where "entry matched nothing" actually means the finding is
// gone rather than merely out of scope — to turn unconsumed entries
// into findings.
func (b *Baseline) Filter(moduleDir string, ds []Diagnostic) []Diagnostic {
	if len(b.remaining) == 0 {
		return ds
	}
	var out []Diagnostic
	for _, d := range ds {
		k := baselineKey(d.Analyzer, relFile(moduleDir, d.Pos.Filename), d.Message)
		if b.remaining[k] > 0 {
			b.remaining[k]--
			continue
		}
		out = append(out, d)
	}
	return out
}

// Stale reports one pseudo-diagnostic per baseline entry of the given
// analyzers (and of the "lint" pseudo-analyzer) that no Filter call
// consumed: a stale baseline fails the same way a new finding does, so
// the file can only shrink. An entry of an analyzer that did not run is
// out of scope, not stale.
func (b *Baseline) Stale(analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{"lint": true}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var stale []string
	for _, k := range b.lines {
		if b.remaining[k] > 0 && ran[k[:strings.IndexByte(k, '\t')]] {
			b.remaining[k]--
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	var out []Diagnostic
	for _, k := range stale {
		parts := strings.SplitN(k, "\t", 3)
		out = append(out, Diagnostic{
			Pos:      token.Position{Filename: b.Path},
			Analyzer: "baseline",
			Message: "stale baseline entry (finding no longer produced): " + parts[0] + " in " + parts[1] +
				": " + parts[2],
		})
	}
	return out
}

// FormatBaseline renders diagnostics as baseline file content, sorted
// and deduplicated-by-count, with a self-describing header.
func FormatBaseline(moduleDir string, ds []Diagnostic) string {
	var keys []string
	for _, d := range ds {
		keys = append(keys, baselineKey(d.Analyzer, relFile(moduleDir, d.Pos.Filename), d.Message))
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("# picolint baseline: accepted findings, one per line as analyzer<TAB>file<TAB>message.\n")
	sb.WriteString("# Entries that stop matching are reported as stale — this file only shrinks.\n")
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('\n')
	}
	return sb.String()
}
