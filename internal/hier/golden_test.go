package hier

import (
	"reflect"
	"testing"

	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

// goldenReqs is a fixed mixed stream over a 12MB footprint, larger
// than both the 1MB PDC and the 4MB Flash cache: both levels evict, so
// the order of Flash inserts and PDC write-backs decides what stays
// cached. Multi-page reads set off readahead.
func goldenReqs() []trace.Request {
	rng := sim.NewRNG(2024)
	reqs := make([]trace.Request, 20000)
	for i := range reqs {
		req := trace.Request{Op: trace.OpRead, LBA: int64(rng.Uint64n(6000)), Pages: 1 + rng.Intn(4)}
		if rng.Bool(0.3) {
			req.Op = trace.OpWrite
		}
		reqs[i] = req
	}
	return reqs
}

// goldenRun replays goldenReqs through cfg and drains the hierarchy.
func goldenRun(cfg Config) ([]TierStats, Stats) {
	s := New(cfg)
	s.RunBatch(goldenReqs())
	s.Drain()
	return s.TierStats(), s.Stats()
}

// TestGoldenWalk pins every per-level and hierarchy counter of two
// fixed runs to literal values, so any reordering of the section 5.1
// walk (lookup order, Flash insert before PDC fill, where dirty
// evictions land) shows up as a changed number.
func TestGoldenWalk(t *testing.T) {
	cases := []struct {
		name      string
		cfg       Config
		wantTiers []TierStats
		wantStats Stats
	}{
		{
			name: "flash-readahead",
			cfg:  Config{DRAMBytes: 1 << 20, FlashBytes: 4 << 20, Seed: 1, ReadAhead: 4},
			wantTiers: []TierStats{
				{Name: "dram", Reads: 77068, Hits: 19718, Misses: 57350, Writes: 15165},
				{Name: "flash", Reads: 57350, Hits: 14595, Misses: 42755, Writes: 14907},
				{Name: "disk", Reads: 42755, Hits: 42755, Misses: 0, Writes: 0},
			},
			wantStats: Stats{Requests: 20000, ReadPages: 34928, WritePages: 15165, PDCHits: 6217,
				FlashHits: 7327, DiskReads: 42755, Prefetched: 28639, TotalLatency: 90364784950},
		},
		{
			name: "dram-only",
			cfg:  Config{DRAMBytes: 1 << 20, Seed: 1},
			wantTiers: []TierStats{
				{Name: "dram", Reads: 34928, Hits: 2988, Misses: 31940, Writes: 15165},
				{Name: "disk", Reads: 31940, Hits: 31940, Misses: 0, Writes: 14784},
			},
			wantStats: Stats{Requests: 20000, ReadPages: 34928, WritePages: 15165, PDCHits: 2988,
				FlashHits: 0, DiskReads: 31940, Prefetched: 0, TotalLatency: 134183065100},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tiers, st := goldenRun(tc.cfg)
			if !reflect.DeepEqual(tiers, tc.wantTiers) {
				t.Errorf("TierStats = %#v\nwant %#v", tiers, tc.wantTiers)
			}
			if st != tc.wantStats {
				t.Errorf("Stats = %#v\nwant %#v", st, tc.wantStats)
			}
		})
	}
}
