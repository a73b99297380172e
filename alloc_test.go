package flashdc

import (
	"testing"

	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

// The allocation gate: the request hot paths are allocation-free in
// steady state. Allocation counts do not depend on the host, so unlike
// ns/op they gate exactly. The ECC kernels have their own in
// internal/bch.

// TestCacheReadHitAllocFree pins the Flash hit path (FCHT lookup,
// device read, ECC latency accounting, LRU update) at 0 allocations.
func TestCacheReadHitAllocFree(t *testing.T) {
	c := NewCache(DefaultCacheConfig(16 << 20))
	for i := int64(0); i < 1000; i++ {
		c.Insert(i)
	}
	lba := int64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		if !c.Read(lba).Hit {
			t.Fatalf("LBA %d missed", lba)
		}
		lba = (lba + 1) % 1000
	}); allocs != 0 {
		t.Fatalf("Cache.Read hit: %v allocs/op, want 0", allocs)
	}
}

// TestSystemHandleAllocFree pins a full request through the DRAM,
// Flash and disk models at 0 allocations once the caches are warm.
// The stream is generated up front, so only Handle is measured.
func TestSystemHandleAllocFree(t *testing.T) {
	checkHandleAllocFree(t, SystemConfig{DRAMBytes: 1 << 20, FlashBytes: 16 << 20, Seed: 1}, 1000)
}

// TestSystemHandleObservedAllocFree is the same gate with metrics on
// and a 1 ms snapshot interval, which takes a snapshot every few
// requests: each snapshot is a row carved from the observer's arena,
// so the observed path stays allocation-free too.
func TestSystemHandleObservedAllocFree(t *testing.T) {
	o := NewObserver(ObsOptions{Metrics: true, MetricsInterval: sim.Millisecond})
	checkHandleAllocFree(t, SystemConfig{DRAMBytes: 1 << 20, FlashBytes: 16 << 20, Seed: 1, Observer: o}, 20000)
	if n := len(o.Snapshots()); n < 1000 {
		t.Fatalf("only %d snapshots taken; the gate must cover the snapshot path", n)
	}
}

// TestSystemHandleGCAllocFree is the gate on the write/GC path: a
// write-heavy alpha1 stream through the 8x4 channel/bank scheduler and
// its write buffer, measured in steady-state background collection, so
// victim selection, relocation and erase booking are all inside the
// measured window. The window is counted as one run, so that even one
// allocation per collection cannot round away in a per-call average.
func TestSystemHandleGCAllocFree(t *testing.T) {
	flash := DefaultCacheConfig(16 << 20)
	flash.Sched = SchedConfig{Channels: 8, Banks: 4, WriteBufPages: 16}
	s, next := warmSystem(t, SystemConfig{DRAMBytes: 1 << 20, FlashBytes: 16 << 20, Flash: flash, Seed: 1}, "alpha1", 1.0/16, 5000)
	before := s.FlashStats().GCRuns
	// AllocsPerRun(1, f) calls f twice, warming up on the first half.
	half := len(next) / 2
	if allocs := testing.AllocsPerRun(1, func() {
		for _, req := range next[:half] {
			s.Handle(req)
		}
		next = next[half:]
	}); allocs != 0 {
		t.Fatalf("System.Handle: %v allocations over %d requests, want 0", allocs, half)
	}
	if s.FlashStats().GCRuns == before {
		t.Fatal("no background collection ran inside the measured window")
	}
}

// checkHandleAllocFree warms a system on dbt2 and then requires 0
// allocations per Handle over runs more requests.
func checkHandleAllocFree(t *testing.T, cfg SystemConfig, runs int) {
	t.Helper()
	s, next := warmSystem(t, cfg, "dbt2", 0.01, runs)
	if allocs := testing.AllocsPerRun(runs, func() {
		s.Handle(next[0])
		next = next[1:]
	}); allocs != 0 {
		t.Fatalf("System.Handle: %v allocs/op, want 0", allocs)
	}
}

// warmSystem builds a system, serves it 20k requests of the named
// workload, and returns it with the next runs+1 requests of the
// stream, generated up front so that only Handle is measured.
func warmSystem(t *testing.T, cfg SystemConfig, gen string, scale float64, runs int) (*System, []trace.Request) {
	t.Helper()
	const warm = 20000
	s := NewSystem(cfg)
	g, err := NewWorkload(gen, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]trace.Request, warm+runs+1)
	for i := range reqs {
		reqs[i] = g.Next()
	}
	for _, req := range reqs[:warm] {
		s.Handle(req)
	}
	return s, reqs[warm:]
}
