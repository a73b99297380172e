package engine

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"flashdc/internal/hier"
	"flashdc/internal/obs"
	"flashdc/internal/sim"
	"flashdc/internal/workload"
)

var updateObsGoldens = flag.Bool("update", false, "rewrite the observability JSONL goldens under testdata/")

// TestObserveJSONLGolden pins the serialised observability output byte
// for byte. TestObserveGoldenDeterminism only compares runs with each
// other, so a change to how snapshots are stored, merged or encoded
// could alter every run alike and still pass; these goldens catch it.
//
// Regenerate (only for an intended output change) with
//
//	go test ./internal/engine -run 'TestObserve(JSONL|Prometheus)Golden' -update
func TestObserveJSONLGolden(t *testing.T) {
	for _, tc := range goldenConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			e := goldenRun(t, tc.cfg)
			m, ev := serialise(t, e.Observe())
			checkGolden(t, "obs_"+tc.name+".metrics.jsonl", m)
			checkGolden(t, "obs_"+tc.name+".events.jsonl", ev)
		})
	}
}

// TestObservePrometheusGolden pins the live Prometheus exposition of
// the merged shards: once mid-run, when each shard publishes its own
// latest interval snapshot, and once after Observe, when both publish
// their final snapshots.
func TestObservePrometheusGolden(t *testing.T) {
	for _, tc := range goldenConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			e := goldenRun(t, tc.cfg)
			h := obs.Handler(e.Observers)
			var out bytes.Buffer
			for _, observe := range []bool{false, true} {
				if observe {
					e.Observe()
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				out.Write(rec.Body.Bytes())
			}
			checkGolden(t, "obs_"+tc.name+".prom", out.Bytes())
		})
	}
}

type goldenConfig struct {
	name string
	cfg  hier.Config
}

// goldenConfigs: the campaign config exercises the fault, scrub,
// retention and disturb series; the feedback config adds the
// conditional sched_* and feedback columns and the fractional
// sched_wbuf_fill gauge.
func goldenConfigs() []goldenConfig {
	return []goldenConfig{
		{"campaign", campaignHier(testSeed)},
		{"feedback", feedbackTestConfig(4)},
	}
}

// goldenRun replays the standard test stream through two observed
// shards and drains them.
func goldenRun(t *testing.T, cfg hier.Config) *Engine {
	t.Helper()
	// A 100 ms cadence keeps each golden under 200 KB.
	o := obsTestOptions()
	o.MetricsInterval = 100 * sim.Millisecond
	e, err := New(Config{Shards: 2, Workers: 2, Hier: cfg, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	e.RunSource(workload.AsSource(newTestGen(t)), testRequests)
	e.Drain()
	return e
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateObsGoldens {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: serialised output drifted from the golden (%d bytes, want %d)", path, len(got), len(want))
	}
}
