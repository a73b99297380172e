package flashdc

import (
	"bytes"
	"testing"
)

// TestPublicAPICacheRoundTrip exercises the re-exported cache API end
// to end.
func TestPublicAPICacheRoundTrip(t *testing.T) {
	cfg := DefaultCacheConfig(8 << 20)
	cfg.Seed = 1
	c := NewCache(cfg)
	if out := c.Read(42); out.Hit {
		t.Fatal("cold hit")
	}
	c.Insert(42)
	if out := c.Read(42); !out.Hit {
		t.Fatal("miss after insert")
	}
	c.Write(43)
	if !c.Contains(43) {
		t.Fatal("write not cached")
	}
}

// TestPublicAPIHierarchy drives a small system with a catalog
// workload.
func TestPublicAPIHierarchy(t *testing.T) {
	s := NewSystem(SystemConfig{DRAMBytes: 1 << 20, FlashBytes: 16 << 20, Seed: 2})
	g, err := NewWorkload("dbt2", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		s.Handle(g.Next())
	}
	st := s.Stats()
	if st.Requests != 20000 || st.PDCHits == 0 || st.FlashHits == 0 {
		t.Fatalf("hierarchy stats %+v", st)
	}
	bw := DefaultServer().Bandwidth(st.AvgLatency())
	if bw <= 0 {
		t.Fatal("no bandwidth")
	}
}

// TestPublicAPIWorkloads checks the catalog is complete and every
// entry constructs.
func TestPublicAPIWorkloads(t *testing.T) {
	specs := Workloads()
	if len(specs) != 12 {
		t.Fatalf("catalog has %d workloads, want 12 (Table 4)", len(specs))
	}
	for _, spec := range specs {
		g, err := NewWorkload(spec.Name, 0.01, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := g.Next()
		if r.LBA < 0 {
			t.Fatalf("%s produced bad request", spec.Name)
		}
	}
	if _, err := NewWorkload("bogus", 1, 1); err == nil {
		t.Fatal("bogus workload accepted")
	}
}

// TestPublicAPIExperiments checks the registry covers every paper
// artifact and one runs.
func TestPublicAPIExperiments(t *testing.T) {
	ids := Experiments()
	want := map[string]bool{
		"table1": true, "table2": true, "table3": true, "table4": true,
		"fig1b": true, "fig4": true, "fig6a": true, "fig6b": true,
		"fig7": true, "fig9": true, "fig10": true, "fig11": true, "fig12": true,
	}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for id := range want {
		if !have[id] {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	tab, err := RunExperiment("fig6a", ExperimentOptions{Seed: 1, Scale: 1.0 / 128})
	if err != nil || len(tab.Rows) == 0 {
		t.Fatalf("fig6a: %v", err)
	}
	if _, err := RunExperiment("nope", DefaultExperimentOptions()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestDurationUnits sanity-checks re-exported units.
func TestDurationUnits(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond || Microsecond != 1000*Nanosecond {
		t.Fatal("unit ladder broken")
	}
	var d Duration = 3 * Millisecond
	if d.Seconds() != 0.003 {
		t.Fatal("Seconds conversion broken")
	}
}

// TestOpConstants checks the request direction re-exports.
func TestOpConstants(t *testing.T) {
	r := Request{Op: OpWrite, LBA: 9, Pages: 2}
	if r.Op.String() != "W" {
		t.Fatal("op re-export broken")
	}
	n := 0
	r.Expand(func(int64) { n++ })
	if n != 2 {
		t.Fatal("Expand broken")
	}
	_ = OpRead
}

// TestPublicAPIFTL exercises the flash-as-SSD substrate through the
// re-exports.
func TestPublicAPIFTL(t *testing.T) {
	f := NewFTL(FTLConfig{Blocks: 8, Mode: ModeSLC, Seed: 1})
	if _, err := f.Write(42); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(42); err != nil {
		t.Fatal(err)
	}
	if f.Stats().HostWrites != 1 {
		t.Fatal("FTL stats wrong")
	}
}

// TestPublicAPIPersistence round-trips cache metadata through the
// re-exported entry points.
func TestPublicAPIPersistence(t *testing.T) {
	cfg := DefaultCacheConfig(8 << 20)
	cfg.Seed = 5
	c := NewCache(cfg)
	c.Insert(7)
	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	restored, rep, err := OpenCache(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdStart {
		t.Fatal("clean image reported a cold start")
	}
	if !restored.Contains(7) {
		t.Fatal("restored cache lost the page")
	}
}

// TestPublicAPIOpenCacheRecovery exercises the crash-tolerant path:
// a garbage image under WithRecovery yields a usable cold cache and a
// report naming the cause, and WithObserver sees the open event first.
func TestPublicAPIOpenCacheRecovery(t *testing.T) {
	cfg := DefaultCacheConfig(8 << 20)
	cfg.Seed = 5
	garbage := bytes.NewBufferString("not a metadata image")
	c, rep, err := OpenCache(cfg, garbage, WithRecovery())
	if err != nil {
		t.Fatalf("WithRecovery must not fail: %v", err)
	}
	if !rep.ColdStart || rep.Err == nil {
		t.Fatalf("want cold-start report with cause, got %+v", rep)
	}
	if c == nil || c.Dead() {
		t.Fatal("recovered cache unusable")
	}

	obs := NewObserver(ObsOptions{Metrics: true, Trace: true})
	fresh, _, err := OpenCache(cfg, nil, WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	fresh.Insert(7)
	if evs := obs.Trace.Events(); len(evs) == 0 || evs[0].Kind != "open" {
		t.Fatalf("want an open event first, got %v", evs)
	}
}
