package core

import (
	"testing"

	"flashdc/internal/fault"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// stepBacking records, per LBA, the step of its latest write-back on a
// clock it shares with the driving loop.
type stepBacking struct {
	step *uint64
	last map[int64]uint64
}

func (b *stepBacking) WritePage(lba int64) sim.Duration {
	*b.step++
	b.last[lba] = *b.step
	return 0
}

// TestSplitCacheConservesDirtyPages checks that the split cache never
// loses a dirty page while it moves pages: every LBA's last Write is
// followed by a write-back of that LBA, whether the page was evicted,
// retired, salvaged from a relocation the dying cache could not land,
// or flushed at the end. The runs move pages for every reason the
// cache has — GC, wear rotation, scrub migration, retention refresh,
// retirement — and one runs until the cache dies. Only Write and
// Insert drive it: a Read can lose a page to an uncorrectable error,
// which is data loss by design, not by a move.
//
// The scope is the split cache only. The unified baseline keeps no
// dirty state at all (a page is dirty only in the split cache's write
// region), so the same drive there loses every written page.
func TestSplitCacheConservesDirtyPages(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ops     int
		accel   float64
		plan    fault.Plan
		dies    bool
		retains bool
	}{
		{name: "faults-wear-refresh", ops: 60000, accel: 300, retains: true,
			plan: fault.Plan{Seed: 3, ProgramFailRate: 2e-4, GrownBadRate: 0.05}},
		{name: "to-death", ops: 200000, accel: 3000, dies: true,
			plan: fault.Plan{Seed: 7, ProgramFailRate: 1e-3, EraseFailRate: 1e-3, GrownBadRate: 0.2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var step uint64
			back := &stepBacking{step: &step, last: map[int64]uint64{}}
			plan := tc.plan
			c := smallCache(t, func(cfg *Config) {
				cfg.Backing = back
				cfg.Faults = &plan
				cfg.WearAcceleration = tc.accel
				cfg.WearThreshold = 4
				cfg.ScrubEvery = 64
				if tc.retains {
					cfg.Retention = wear.RetentionParams{Accel: 3e7}
					cfg.RefreshThreshold = 0.5
				}
			})
			var clk sim.Clock
			c.AttachTimeBase(&clk)
			written := map[int64]uint64{}
			rng := sim.NewRNG(11)
			for i := 0; i < tc.ops && !c.Dead(); i++ {
				clk.Advance(100 * sim.Microsecond)
				lba := int64(rng.Intn(3000))
				if rng.Bool(0.5) {
					step++
					written[lba] = step
					c.Write(lba)
				} else {
					c.Insert(lba)
				}
			}
			c.Flush()
			st := c.Stats()
			t.Logf("dead=%v gc=%d swaps=%d scrub=%d refresh=%d retired=%d flushed=%d",
				c.Dead(), st.GCRelocations, st.WearSwaps, st.ScrubMigrations, st.RefreshRewrites,
				st.RetiredBlocks, st.FlushedPages)
			lost := 0
			for lba, w := range written {
				if back.last[lba] <= w {
					lost++
				}
			}
			if lost > 0 {
				t.Fatalf("%d of %d written LBAs never reached the backing store after their last write", lost, len(written))
			}
			if c.Dead() != tc.dies {
				t.Fatalf("dead = %v, want %v", c.Dead(), tc.dies)
			}
			if st.GCRelocations == 0 || st.WearSwaps == 0 || st.ScrubMigrations == 0 || st.RetiredBlocks == 0 {
				t.Fatalf("run missed a page-move path: %+v", st)
			}
			if tc.retains && st.RefreshRewrites == 0 {
				t.Fatal("retention run made no refresh rewrites")
			}
		})
	}
}

// TestDyingGCWritesBack covers the write-back of a move that cannot
// land, which the runs above reach only by chance: backgroundGC on a
// write region whose cache has died. The first relocation cannot land
// and writes its page back; the pages GC then leaves on the victim are
// written back as they are dropped.
func TestDyingGCWritesBack(t *testing.T) {
	var step uint64
	back := &stepBacking{step: &step, last: map[int64]uint64{}}
	c := smallCache(t, func(cfg *Config) { cfg.Backing = back })
	for i := 0; i < 400; i++ {
		c.Write(int64(i % 150))
	}
	wr := c.regions[writeRegion]
	victim, _ := c.gcPol.victim(c, wr, true)
	if victim < 0 {
		t.Fatal("setup: no GC victim in the write region")
	}
	var lbas []int64
	for _, a := range c.validPagesOf(victim) {
		lbas = append(lbas, c.fpst.At(a).LBA)
	}
	if len(lbas) < 2 {
		t.Fatalf("setup: victim holds %d valid pages, want an in-flight page and leftovers", len(lbas))
	}
	before := step
	runs := c.Stats().GCRuns
	c.dead = true
	c.backgroundGC(wr, true)
	if c.Stats().GCRuns != runs+1 {
		t.Fatal("setup: GC did not run")
	}
	for _, lba := range lbas {
		if back.last[lba] <= before {
			t.Errorf("lba %d dropped without a write-back", lba)
		}
	}
	if c.meta[victim].valid != 0 {
		t.Fatalf("victim keeps %d valid pages", c.meta[victim].valid)
	}
}
