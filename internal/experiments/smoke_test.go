package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// wallClockIDs are the experiments whose tables report host wall-clock
// rates, so their cells differ from run to run; every other table is a
// pure function of Options and is pinned byte for byte by a golden.
var wallClockIDs = map[string]bool{"ecc-throughput": true, "batch_throughput": true}

// quickOptions is the test scale.
func quickOptions() Options { return Options{Seed: 1, Scale: 1.0 / 128} }

// mustRun is Run for known-good IDs.
func mustRun(id string, o Options) *Table {
	t, err := Run(id, o)
	if err != nil {
		panic(err)
	}
	return t
}

// goldenPath is where the quick-scale rendering of a deterministic
// experiment is pinned.
func goldenPath(id string) string { return filepath.Join("testdata", id+".golden") }

// TestAllExperimentsQuick executes every registered experiment at the
// quick scale, sanity-checks the output tables and compares each
// deterministic table's rendering with its golden under testdata/.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab := mustRun(id, quickOptions())
			if tab.ID != id {
				t.Fatalf("table ID %q, want %q", tab.ID, id)
			}
			if len(tab.Header) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("experiment %s produced an empty table", id)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("%s: row width %d != header %d", id, len(row), len(tab.Header))
				}
			}
			got := tab.String()
			if got == "" {
				t.Fatal("empty rendering")
			}
			if wallClockIDs[id] {
				return
			}
			want, err := os.ReadFile(goldenPath(id))
			if err != nil {
				t.Fatalf("no golden for deterministic experiment %s: %v", id, err)
			}
			if got != string(want) {
				t.Fatalf("%s drifted from %s\n--- got\n%s--- want\n%s", id, goldenPath(id), got, want)
			}
		})
	}
}
