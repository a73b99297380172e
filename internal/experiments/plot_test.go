package experiments

import (
	"strings"
	"testing"
)

func chartFixture() *Table {
	t := &Table{ID: "figX", Title: "x", Header: []string{"k", "v", "w"}}
	t.AddRow("a", 1.0, 10.0)
	t.AddRow("bb", 2.0, 20.0)
	t.AddRow("ccc", 4.0, 0.0)
	return t
}

func TestChartRendersBars(t *testing.T) {
	tab := chartFixture()
	out := tab.Chart(1, 8)
	if !strings.Contains(out, "figX") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + 3 bars
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// Longest value gets the full width; half value gets half.
	if !strings.Contains(lines[3], strings.Repeat("#", 8)) {
		t.Fatalf("max bar not full width: %q", lines[3])
	}
	if !strings.Contains(lines[2], "####") || strings.Contains(lines[2], "#####") {
		t.Fatalf("half bar wrong: %q", lines[2])
	}
	// Tiny positive values still render one mark.
	if !strings.Contains(lines[1], "|#") {
		t.Fatalf("small bar missing: %q", lines[1])
	}
}

func TestChartBadColumn(t *testing.T) {
	tab := chartFixture()
	if out := tab.Chart(0, 10); !strings.Contains(out, "no numeric column") {
		t.Fatalf("col 0: %q", out)
	}
	if out := tab.Chart(9, 10); !strings.Contains(out, "no numeric column") {
		t.Fatalf("col 9: %q", out)
	}
}

func TestChartNonNumericData(t *testing.T) {
	tab := &Table{ID: "t", Header: []string{"k", "v"}}
	tab.AddRow("a", "n/a")
	if out := tab.Chart(1, 10); !strings.Contains(out, "no positive data") {
		t.Fatalf("%q", out)
	}
}

func TestDefaultChartColumn(t *testing.T) {
	tab := chartFixture()
	if got := tab.DefaultChartColumn(); got != 2 {
		t.Fatalf("DefaultChartColumn = %d, want 2 (last numeric)", got)
	}
	empty := &Table{ID: "e", Header: []string{"k", "v"}}
	if got := empty.DefaultChartColumn(); got != 1 {
		t.Fatalf("empty default = %d", got)
	}
}

func TestChartOnRealExperiment(t *testing.T) {
	tab := mustRun("fig6b", quickOptions())
	out := tab.Chart(1, 40)
	if !strings.Contains(out, "#") || !strings.Contains(out, "fig6b") {
		t.Fatalf("real chart broken: %q", out)
	}
}
