package flashdc

import (
	"testing"

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
	const warm, runs = 20000, 1000
	s := NewSystem(SystemConfig{DRAMBytes: 1 << 20, FlashBytes: 16 << 20, Seed: 1})
	g, err := NewWorkload("dbt2", 0.01, 1)
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
	next := reqs[warm:]
	if allocs := testing.AllocsPerRun(runs, func() {
		s.Handle(next[0])
		next = next[1:]
	}); allocs != 0 {
		t.Fatalf("System.Handle: %v allocs/op, want 0", allocs)
	}
}
