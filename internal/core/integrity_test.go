package core

import (
	"strings"
	"testing"

	"flashdc/internal/nand"
	"flashdc/internal/tables"
)

// populatedCache returns a cache with enough traffic behind it that
// every structure the audit covers is non-trivial: valid pages in
// both regions, active LRU blocks, and a clean CheckIntegrity.
func populatedCache(t *testing.T) *Cache {
	t.Helper()
	c := smallCache(t, nil)
	for i := 0; i < 6000; i++ {
		lba := int64(i % 900)
		if i%3 == 0 {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatalf("healthy cache failed audit: %v", err)
	}
	return c
}

// anyMapping returns one live FCHT entry.
func anyMapping(t *testing.T, c *Cache) (int64, nand.Addr) {
	t.Helper()
	var lba int64
	var addr nand.Addr
	found := false
	c.fcht.Range(func(l int64, a nand.Addr) bool {
		lba, addr, found = l, a, true
		return false
	})
	if !found {
		t.Fatal("populated cache has no mappings")
	}
	return lba, addr
}

// corrupt must make the audit fail with a message containing want.
func assertCaught(t *testing.T, c *Cache, want string) {
	t.Helper()
	err := c.CheckIntegrity()
	if err == nil {
		t.Fatalf("audit missed corruption (want %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("audit reported %q, want mention of %q", err, want)
	}
}

func TestIntegrityCatchesValidCountDrift(t *testing.T) {
	c := populatedCache(t)
	_, addr := anyMapping(t, c)
	c.meta[addr.Block].valid++
	assertCaught(t, c, "valid pages")
}

func TestIntegrityCatchesGlobalCountDrift(t *testing.T) {
	c := populatedCache(t)
	c.totalValid++
	assertCaught(t, c, "entries")
}

func TestIntegrityCatchesOrphanFCHTEntry(t *testing.T) {
	c := populatedCache(t)
	// Map a never-written LBA to a page that is not valid: the entry
	// has no backing data.
	var orphan nand.Addr
	found := false
	for b := range c.meta {
		if c.meta[b].state == blockRetired {
			continue
		}
		for s := 0; s < nand.SlotsPerBlock && !found; s++ {
			a := nand.Addr{Block: b, Slot: s}
			if !c.fpst.At(a).Valid {
				orphan, found = a, true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no invalid page to orphan onto")
	}
	c.fcht.Put(1<<40, orphan)
	assertCaught(t, c, "maps to")
}

func TestIntegrityCatchesStaleFPSTValidBit(t *testing.T) {
	c := populatedCache(t)
	lba, addr := anyMapping(t, c)
	// Clear the valid bit behind the FCHT's back: the mapping now
	// points at a page the tables disown.
	st := c.fpst.At(addr)
	st.Valid = false
	st.LBA = tables.InvalidLBA
	_ = lba
	assertCaught(t, c, "maps to")
}

func TestIntegrityCatchesCrossMappedLBA(t *testing.T) {
	c := populatedCache(t)
	lba, addr := anyMapping(t, c)
	// Rewrite the page's LBA tag so mapping and page disagree.
	c.fpst.At(addr).LBA = lba + 1
	assertCaught(t, c, "maps to")
}

func TestIntegrityCatchesLRUDetachment(t *testing.T) {
	c := populatedCache(t)
	// Detach an active block from its region's LRU without touching
	// its metadata: the block now belongs to no structure.
	detached := -1
	for b := range c.meta {
		if c.meta[b].state == blockActive && c.meta[b].onLRU() {
			r := c.regions[c.meta[b].region]
			c.unlink(r, b)
			// Keep the population tally consistent so the sharper
			// orphan-block check is the one that fires.
			r.blocks--
			detached = b
			break
		}
	}
	if detached < 0 {
		t.Fatal("no active block to detach")
	}
	assertCaught(t, c, "belongs to no region structure")
}

func TestIntegrityCatchesRegionPopulationDrift(t *testing.T) {
	c := populatedCache(t)
	c.regions[0].blocks++
	assertCaught(t, c, "accounts for")
}

func TestIntegrityCatchesRetiredBlockOnLRU(t *testing.T) {
	c := populatedCache(t)
	// Mark an active block retired while leaving it on the LRU; its
	// mappings also become dangling, so some audit stage must trip.
	for b := range c.meta {
		if c.meta[b].state == blockActive {
			c.meta[b].state = blockRetired
			break
		}
	}
	if err := c.CheckIntegrity(); err == nil {
		t.Fatal("audit missed a retired block still on the LRU")
	}
}

func TestIntegrityCatchesCounterOverflow(t *testing.T) {
	c := populatedCache(t)
	// consumed beyond the block's geometry.
	for b := range c.meta {
		if c.meta[b].state == blockActive {
			// Keep valid == tables so earlier stages stay quiet.
			c.meta[b].consumed = 10 * nand.SlotsPerBlock
			break
		}
	}
	assertCaught(t, c, "counters out of range")
}

// TestIntegrityCatchesVictimIndexDrift: the audit checks the greedy
// victim index against the block metadata — a block filed under the
// wrong invalid count, a non-empty bit out of step with its bucket, and
// LRU stamps out of order are each caught.
func TestIntegrityCatchesVictimIndexDrift(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(c *Cache, r *region)
	}{
		{"misfiled block", "filed in region", func(c *Cache, r *region) {
			b := int(r.head)
			c.bucketDel(r, b)
			c.meta[b].consumed++
			c.bucketAdd(r, b)
			c.meta[b].consumed--
		}},
		{"stale non-empty bit", "non-empty bit", func(c *Cache, r *region) {
			k := r.mostInvalid()
			r.nonEmpty[k/64] &^= 1 << (k % 64)
		}},
		{"stamps out of order", "stamps do not strictly decrease", func(c *Cache, r *region) {
			front, next := &c.meta[r.head], &c.meta[c.meta[r.head].next]
			front.stamp, next.stamp = next.stamp, front.stamp
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := populatedCache(t)
			r := c.regions[readRegion]
			if r.active < 2 {
				t.Fatalf("setup: read region LRU holds %d blocks, want at least 2", r.active)
			}
			tc.corrupt(c, r)
			assertCaught(t, c, tc.want)
		})
	}
}
