package experiments

import (
	"strings"
	"testing"
)

func TestRunSeedsValidation(t *testing.T) {
	if _, err := RunSeeds("fig6a", quickOptions(), 0); err == nil {
		t.Fatal("zero seeds accepted")
	}
	if _, err := RunSeeds("nope", quickOptions(), 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunSeedsDeterministicExperimentCollapses(t *testing.T) {
	// fig6a is analytic: identical under every seed, so merged cells
	// must carry no error bars.
	tab, err := RunSeeds("fig6a", quickOptions(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		for _, cell := range row {
			if strings.Contains(cell, "±") {
				t.Fatalf("deterministic experiment grew error bars: %q", cell)
			}
		}
	}
	if !strings.Contains(tab.Note, "3 seeds") {
		t.Fatalf("note missing seed count: %q", tab.Note)
	}
}

func TestRunSeedsNoisyExperimentGetsErrorBars(t *testing.T) {
	o := quickOptions()
	o.Requests = 30000
	tab, err := RunSeeds("fig4", o, 3)
	if err != nil {
		t.Fatal(err)
	}
	bars := 0
	for _, row := range tab.Rows {
		for _, cell := range row {
			if strings.Contains(cell, "±") {
				bars++
			}
		}
	}
	if bars == 0 {
		t.Fatal("seeded miss rates produced no error bars at all")
	}
	// Labels stay intact.
	if !strings.HasSuffix(tab.Rows[0][0], "MB") {
		t.Fatalf("label corrupted: %q", tab.Rows[0][0])
	}
}

func TestMergeCellMixedShapes(t *testing.T) {
	a := &Table{ID: "x", Header: []string{"k", "v"}}
	a.AddRow("r", 1.0)
	b := &Table{ID: "x", Header: []string{"k", "v"}}
	b.AddRow("r", 3.0)
	m, err := mergeTables([]*Table{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(m.Rows[0][1], "2") {
		t.Fatalf("mean wrong: %q", m.Rows[0][1])
	}
	// Row-count mismatch must error.
	c := &Table{ID: "x", Header: []string{"k", "v"}}
	if _, err := mergeTables([]*Table{a, c}); err == nil {
		t.Fatal("row mismatch accepted")
	}
}
