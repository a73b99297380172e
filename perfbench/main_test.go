package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// heldOutSeed is never used while tuning the benchmark; the clean-run
// test replays every workload with it.
const heldOutSeed = 424242

// shortSpecs returns the workloads with their streams shortened so the
// tests run in seconds.
func shortSpecs(t *testing.T, requests int) []spec {
	t.Helper()
	out := append([]spec(nil), specs...)
	for i := range out {
		out[i].requests = requests
	}
	return out
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 2000, want: 0.99, got: 0.99},
		{n: 1000, want: 0.99, got: 0.99},
		{n: 500, want: 0.99, got: 0.98},
		{n: 100, want: 0.99, got: 0.9},
		{n: 9, want: 0.99, got: 0},
		{n: 1_000_000, want: 0.999, got: 0.999},
	} {
		q := tailQuantile(tc.n, tc.want)
		if math.Abs(q-tc.got) > 1e-12 {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", tc.n, tc.want, q, tc.got)
		}
		if beyond := float64(tc.n) * (1 - q); tc.n >= 10 && beyond < 10-1e-9 {
			t.Errorf("tailQuantile(%d, %v) leaves %.2f samples beyond it, want >= 10", tc.n, tc.want, beyond)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v, want 5.5", m)
	}
}

// benchmarkJSON is the subset of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames runs each mode on a short stream and checks that the
// metrics it prints are exactly those BENCHMARK.json declares, with
// the declared units and valid names.
func TestMetricNames(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, specs[i].name)
		}
	}
	declared := map[string]string{}
	for _, m := range b.EndToEnd {
		declared["e2e:"+m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		declared["layer:"+m.Name] = m.Unit
	}
	for key, unit := range declared {
		name := key[strings.Index(key, ":")+1:]
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("invalid metric %q unit %q", name, unit)
		}
	}

	s := shortSpecs(t, 20_000)[0]
	e, err := runE2E(s, 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, m := range e2eMetrics(e) {
		got["e2e:"+m.name] = m.unit
	}
	layers, _, err := runLayers(s, 1, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range layers {
		if _, dup := got["layer:"+m.name]; dup {
			t.Errorf("metric %s printed twice", m.name)
		}
		got["layer:"+m.name] = m.unit
	}
	for key, unit := range declared {
		if got[key] != unit {
			t.Errorf("%s: declared unit %q, printed %q", key, unit, got[key])
		}
	}
	for key := range got {
		if _, ok := declared[key]; !ok {
			t.Errorf("%s printed but not declared in BENCHMARK.json", key)
		}
	}
}

// TestComponentReplayEquivalence checks on a short stream that the
// dram/core/disk/histogram component replays reproduce the in-situ
// counters exactly on every workload (runLayers fails otherwise).
func TestComponentReplayEquivalence(t *testing.T) {
	for _, s := range shortSpecs(t, 30_000) {
		t.Run(s.name, func(t *testing.T) {
			tr := newTracer()
			ms, _, err := runLayers(s, 7, tr)
			if err != nil {
				t.Fatal(err)
			}
			vals := map[string]float64{}
			for _, m := range ms {
				vals[m.name] = m.value
			}
			if s.sched.Active() == (vals["sched.cmds"] == 0) {
				t.Errorf("sched.cmds = %v with scheduler active=%v", vals["sched.cmds"], s.sched.Active())
			}
			if s.campaign == (vals["obs.snapshots"] == 0) {
				t.Errorf("obs.snapshots = %v with observability on=%v", vals["obs.snapshots"], s.campaign)
			}
		})
	}
}

// TestHeldOutSeed runs the command end to end, both modes, with a seed
// no tuning run used, and requires a clean result on every workload.
func TestHeldOutSeed(t *testing.T) {
	saved := specs
	t.Cleanup(func() { specs = saved })
	specs = shortSpecs(t, 30_000)
	for _, s := range specs {
		for _, mode := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", s.name, "--seed", strconv.Itoa(heldOutSeed), "--seconds", "1", "--trace", mode}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d\n%s", s.name, mode, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", s.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) == 0 {
				t.Errorf("%s --trace %s: result %+v", s.name, mode, res)
			}
		}
	}
}

func TestRefusesUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for an unknown workload: %q", out.String())
	}
}
