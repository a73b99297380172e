package core

import (
	"testing"

	"flashdc/internal/nand"
	"flashdc/internal/sim"
)

// scanGreedy is the greedy collector as a full back-to-front scan of
// the region LRU, the reference the victim index must reproduce: the
// most-invalid block wins, ties go to the least recently used one
// (strict >), and unless forced the winner must be at least half
// invalid.
func scanGreedy(c *Cache, r *region, force bool) (int, int) {
	best, bestInvalid := -1, 0
	for b := r.tail; b != noBlock; b = c.meta[b].prev {
		if invalid := c.meta[b].invalid(); invalid > bestInvalid {
			best, bestInvalid = int(b), invalid
		}
	}
	if best < 0 || (!force && bestInvalid*2 < c.meta[best].consumed) {
		return -1, 0
	}
	return best, bestInvalid
}

// checkGreedyLockstep audits every region's index and requires the
// indexed greedy victim to equal the scan's, forced and not.
func checkGreedyLockstep(t *testing.T, c *Cache, step int) {
	t.Helper()
	for _, r := range c.regions {
		if err := c.checkIndex(r); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, force := range []bool{false, true} {
			gb, gi := (greedyGC{}).victim(c, r, force)
			sb, si := scanGreedy(c, r, force)
			if gb != sb || gi != si {
				t.Fatalf("step %d region %d force %v: index picked block %d (%d invalid), scan picked %d (%d)",
					step, r.id, force, gb, gi, sb, si)
			}
		}
	}
}

// TestGreedyIndexMatchesScan runs the greedy victim index in lockstep
// with the full scan. The first half churns one region directly —
// push, remove, touch, invalidate and revalidate over blocks with mixed
// SLC/MLC consumed counts and invalid counts drawn from a few values so
// that ties are common — with periodic rebuilds through the restore
// path. The second half drives a cache with wear fast enough to turn
// slots SLC and checks after every request, across a checkpoint
// round-trip into a fresh cache.
func TestGreedyIndexMatchesScan(t *testing.T) {
	t.Run("churn", func(t *testing.T) {
		c := smallCache(t, nil)
		r := c.regions[writeRegion]
		pool := append([]int(nil), r.free...)
		r.free = r.free[:0]
		var active []int
		rng := sim.NewRNG(7)
		pick := func() (int, int) {
			i := rng.Intn(len(active))
			return i, active[i]
		}
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(10); {
			case op < 2 && len(pool) > 0:
				b := pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				m := &c.meta[b]
				m.state, m.region = blockActive, r.id
				// Mixed densities: every SLC slot of a block
				// holds one page, every MLC slot two.
				m.consumed = nand.SlotsPerBlock + rng.Intn(3)*nand.SlotsPerBlock/2
				m.valid = m.consumed - min(m.consumed, 8*rng.Intn(12))
				c.pushActive(r, b)
				active = append(active, b)
			case op < 3 && len(active) > 0:
				i, b := pick()
				c.removeActive(r, b)
				c.meta[b].state = blockFree
				active = append(active[:i], active[i+1:]...)
				pool = append(pool, b)
			case op < 5 && len(active) > 0:
				_, b := pick()
				c.touch(b)
			case op < 8 && len(active) > 0:
				if _, b := pick(); c.meta[b].valid > 0 {
					c.addValid(b, -1)
				}
			case op < 9 && len(active) > 0:
				if _, b := pick(); c.meta[b].valid < c.meta[b].consumed {
					c.addValid(b, 1)
				}
			case op == 9 && step%50 == 0:
				// The restore path: relink from the checkpoint's
				// front-to-back order, then rebuild stamps and
				// buckets.
				var lru []int
				for b := r.head; b != noBlock; b = c.meta[b].next {
					lru = append(lru, int(b))
				}
				c.relinkLRU(r, lru)
				c.recountRegions()
			}
			checkGreedyLockstep(t, c, step)
		}
	})
	t.Run("traffic", func(t *testing.T) {
		over := func(cfg *Config) { cfg.WearAcceleration = 3000 }
		c := smallCache(t, over)
		rng := sim.NewRNG(3)
		mixed := false
		for step := 0; step < 30000; step++ {
			lba := int64(rng.Intn(1500))
			if rng.Intn(3) == 0 {
				c.Write(lba)
			} else if !c.Read(lba).Hit {
				c.Insert(lba)
			}
			if step == 15000 {
				ck, err := c.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				c = smallCache(t, over)
				if err := c.Restore(ck); err != nil {
					t.Fatal(err)
				}
			}
			checkGreedyLockstep(t, c, step)
			for _, r := range c.regions {
				for b := r.head; b != noBlock; b = c.meta[b].next {
					mixed = mixed || c.dev.PagesPerBlock(int(b)) < 2*nand.SlotsPerBlock
				}
			}
		}
		if !mixed {
			t.Fatal("no active block ever held SLC slots: the traffic half missed mixed densities")
		}
		if st := c.Stats(); st.GCRuns == 0 {
			t.Fatal("the traffic half never collected")
		}
	})
}
