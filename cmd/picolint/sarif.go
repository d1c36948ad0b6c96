package main

import (
	"encoding/json"
	"io"
	"os"

	"picola/internal/analysis"
)

// Minimal SARIF 2.1.0 writer: one run, one rule per analyzer, one
// result per finding. The schema subset here is what code-scanning UIs
// (GitHub's included) need to render findings inline; everything else
// is omitted. Artifact URIs are module-relative so the log is stable
// across checkouts, matching -json's path convention.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// writeSARIF renders the findings (possibly none — CI uploads the file
// unconditionally) to path, or to stdout when path is "-".
func writeSARIF(path string, stdout io.Writer, moduleDir string, diags []analysis.Diagnostic) error {
	rules := make([]sarifRule, 0, len(analysis.All())+1)
	for _, a := range analysis.All() {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	rules = append(rules, sarifRule{ID: "lint", ShortDescription: sarifMessage{Text: "malformed or stale lint:ignore directive"}})
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		r := sarifResult{
			RuleID:  d.Analyzer,
			Level:   "warning",
			Message: sarifMessage{Text: d.Message},
		}
		if d.Pos.Filename != "" {
			r.Locations = []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: moduleRel(moduleDir, d.Pos.Filename)},
				Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}}
		}
		results = append(results, r)
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "picolint", Rules: rules}},
			Results: results,
		}},
	}
	w := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
