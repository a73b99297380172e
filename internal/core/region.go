package core

import (
	"errors"

	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
	"flashdc/internal/wear"
)

// blockLifecycle is where a block sits in the free -> open -> active ->
// (erase) -> free cycle.
type blockLifecycle uint8

const (
	blockFree blockLifecycle = iota
	blockOpen
	blockActive
	blockRetired
)

// blockMeta is the cache's per-block bookkeeping, complementing the
// FBST (which holds the paper-visible wear statistics).
type blockMeta struct {
	state  blockLifecycle
	region int
	// valid is the number of live pages; consumed the number of page
	// positions the allocator has passed (valid + invalidated +
	// skipped sub-pages).
	valid    int
	consumed int
	// cursorSlot/cursorSub is the next allocation position.
	cursorSlot int
	cursorSub  int
	// prev/next link the block into its region's LRU while active,
	// and stamp orders it there (stamps strictly decrease from the
	// front to the back; 0 while off the LRU). bprev/bnext link it
	// into the region's victim-index bucket for its invalid count
	// (blocklru.go).
	prev, next   int32
	bprev, bnext int32
	stamp        uint64
	// accessSum accumulates the FPST access counters of pages at
	// invalidation time, giving the erase-time reconfiguration
	// heuristic a frequency estimate for the block's traffic.
	accessSum uint64
	// lastEraseSeq is the cache access sequence at the last erase.
	lastEraseSeq uint64
	// progFails counts consecutive program failures; at
	// ProgramFailLimit the block is retired as grown-bad.
	progFails int
}

// region is one disk-cache partition (read or write), owning a
// disjoint set of blocks.
type region struct {
	id int
	// free holds erased blocks ready to open.
	free []int
	// open is the block currently being filled, or -1.
	open int
	// head and tail are the most and least recently used active
	// (fully allocated) blocks, noBlock when there are none; active
	// counts them and stamp is the last LRU stamp handed out.
	head, tail int32
	active     int
	stamp      uint64
	// bucket[k] heads the list of active blocks with k invalid pages,
	// and nonEmpty has bit k set exactly while it is non-empty: the
	// greedy victim index (blocklru.go).
	bucket   [invalidBuckets]int32
	nonEmpty [(invalidBuckets + 63) / 64]uint64
	// blocks is the current population (free + open + active).
	blocks int
	// total and valid are the page counts of the open block and the
	// LRU members, the inputs of the section 5.1 watermark check.
	// openBlock/clearOpen/pushActive/removeActive, addValid and
	// setSlotMode keep them in step; walkPages is their definition.
	total, valid int
}

func newRegion(id int) *region {
	r := &region{id: id, open: -1, head: noBlock, tail: noBlock}
	for k := range r.bucket {
		r.bucket[k] = noBlock
	}
	return r
}

func (r *region) addFree(b int) {
	r.free = append(r.free, b)
	r.blocks++
}

// popFree removes and returns one erased block, or -1.
func (r *region) popFree() int {
	if len(r.free) == 0 {
		return -1
	}
	b := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	return b
}

// takeFree removes erased block b from the free list.
func (r *region) takeFree(b int) {
	for i, fb := range r.free {
		if fb == b {
			r.free = append(r.free[:i], r.free[i+1:]...)
			return
		}
	}
}

// touch marks block b most recently used.
func (c *Cache) touch(b int) {
	m := &c.meta[b]
	if m.state != blockActive || !m.onLRU() {
		return
	}
	if r := c.regions[m.region]; r.head != int32(b) {
		c.unlink(r, b)
		c.linkFront(r, b)
	}
}

// freePagesIn returns how many more pages the region can allocate
// without reclaiming (open-block remainder plus free blocks).
func (c *Cache) freePagesIn(r *region) int {
	n := len(r.free) * c.pagesPerFreshBlock()
	if r.open >= 0 {
		n += c.dev.PagesPerBlock(r.open) - c.meta[r.open].consumed
	}
	return n
}

// pagesPerFreshBlock conservatively estimates an erased block's page
// yield (its slots may be SLC, so use the SLC floor).
func (c *Cache) pagesPerFreshBlock() int { return nand.SlotsPerBlock }

// walkPages recounts the region's total and valid page counts over its
// open block and LRU members, the definition its incremental counters
// must match.
func (c *Cache) walkPages(r *region) (total, valid int) {
	for b := r.head; b != noBlock; b = c.meta[b].next {
		total += c.dev.PagesPerBlock(int(b))
		valid += c.meta[b].valid
	}
	if r.open >= 0 {
		total += c.dev.PagesPerBlock(r.open)
		valid += c.meta[r.open].valid
	}
	return total, valid
}

// recountRegions rederives every region's counters by walking, and its
// LRU stamps and victim index from the LRU order, after a restore has
// rebuilt the region structures wholesale.
func (c *Cache) recountRegions() {
	for _, r := range c.regions {
		r.total, r.valid = c.walkPages(r)
		c.indexRegion(r)
	}
}

// countedIn returns the region whose counters include block b — b is
// that region's open block or on its LRU — or nil.
func (c *Cache) countedIn(b int) *region {
	m := &c.meta[b]
	r := c.regions[m.region]
	if (m.state == blockActive && m.onLRU()) || (m.state == blockOpen && r.open == b) {
		return r
	}
	return nil
}

// count adds (sign 1) or removes (sign -1) block b's pages to or from
// region r's counters.
func (c *Cache) count(r *region, b, sign int) {
	r.total += sign * c.dev.PagesPerBlock(b)
	r.valid += sign * c.meta[b].valid
}

// clearOpen detaches the region's open block, if any.
func (c *Cache) clearOpen(r *region) {
	if r.open >= 0 {
		c.count(r, r.open, -1)
		r.open = -1
	}
}

// pushActive puts block b at the front of the region's LRU and files
// it in the victim index.
func (c *Cache) pushActive(r *region, b int) {
	c.linkFront(r, b)
	c.bucketAdd(r, b)
	c.count(r, b, 1)
}

// removeActive takes block b off the region's LRU and victim index.
func (c *Cache) removeActive(r *region, b int) {
	c.bucketDel(r, b)
	c.unlink(r, b)
	c.count(r, b, -1)
}

// addValid moves block b's live page count by d, together with the
// cache-wide count and, while b is counted, its region's — refiling b
// in the victim index when it is active.
func (c *Cache) addValid(b, d int) {
	m := &c.meta[b]
	r := c.countedIn(b)
	indexed := r != nil && m.onLRU()
	if indexed {
		c.bucketDel(r, b)
	}
	m.valid += d
	c.totalValid += int64(d)
	if r != nil {
		r.valid += d
	}
	if indexed {
		c.bucketAdd(r, b)
	}
}

// setSlotMode switches slot s of block b to mode m — legal only while
// the slot is erased — keeping a counting region's page total in step.
func (c *Cache) setSlotMode(b, s int, m wear.Mode) {
	before := c.dev.PagesPerBlock(b)
	if err := c.dev.SetMode(b, s, m); err != nil {
		panic(err)
	}
	if r := c.countedIn(b); r != nil {
		r.total += c.dev.PagesPerBlock(b) - before
	}
}

// tryAlloc returns the next free page of the region's open block
// matching the requested density. ok is false when the open block
// cannot serve the request: absent, or exhausted — then it moves to the
// active LRU.
func (c *Cache) tryAlloc(r *region, mode wear.Mode) (nand.Addr, bool) {
	if r.open < 0 {
		return nand.Addr{}, false
	}
	if addr, ok := c.nextPage(r.open, mode); ok {
		return addr, true
	}
	c.closeOpen(r)
	return nand.Addr{}, false
}

// nextPage returns the next free page of block b matching the requested
// density, advancing b's cursor; ok is false when b is exhausted. It is
// the one slot cursor: region allocation and the wear rotation's
// migration into a chosen block both go through it.
func (c *Cache) nextPage(b int, mode wear.Mode) (nand.Addr, bool) {
	m := &c.meta[b]
	for m.cursorSlot < nand.SlotsPerBlock {
		slotAddr := nand.Addr{Block: b, Slot: m.cursorSlot}
		if m.cursorSub == 0 {
			// Untouched slot: set the desired density before first
			// program (legal only while erased).
			if c.dev.Mode(slotAddr) != mode {
				c.setSlotMode(b, m.cursorSlot, mode)
				for sub := 0; sub < 2; sub++ {
					st := c.fpst.At(nand.Addr{Block: b, Slot: m.cursorSlot, Sub: sub})
					st.Mode = mode
					st.StagedMode = mode
				}
			}
			m.consumed++
			if mode == wear.MLC {
				m.cursorSub = 1
			} else {
				m.cursorSlot++
			}
			return slotAddr, true
		}
		// Slot is MLC with sub 0 consumed.
		if mode == wear.MLC {
			addr := nand.Addr{Block: b, Slot: m.cursorSlot, Sub: 1}
			m.cursorSlot++
			m.cursorSub = 0
			m.consumed++
			return addr, true
		}
		// SLC requested but the slot is half-filled MLC: skip the
		// second sub-page (it stays unprogrammed until erase, a
		// capacity loss GC reclaims).
		m.consumed++
		m.cursorSlot++
		m.cursorSub = 0
	}
	return nand.Addr{}, false
}

// closeOpen moves the region's open block into the active LRU.
func (c *Cache) closeOpen(r *region) {
	if r.open < 0 {
		return
	}
	b := r.open
	c.meta[b].state = blockActive
	c.clearOpen(r)
	c.pushActive(r, b)
}

// openBlock promotes a free block to open.
func (c *Cache) openBlock(r *region, b int) {
	m := &c.meta[b]
	m.state = blockOpen
	m.region = r.id
	r.open = b
	c.count(r, b, 1)
}

// allocProgram obtains a free page of the requested density in the
// region, programs it with the LBA token, and registers the page as
// valid. It reclaims space as needed, remaps around program failures
// (the burned slot is skipped; the data retries on the next free
// page), and returns the accumulated program latency. The attempt
// bound covers the worst legitimate case — every page position of
// every block failing before space appears — so a true no-progress
// loop still trips it.
func (c *Cache) allocProgram(r *region, mode wear.Mode, lba int64) (nand.Addr, sim.Duration) {
	var lat sim.Duration
	for attempt := 0; ; attempt++ {
		if attempt > 2*len(c.meta)*nand.SlotsPerBlock+64 {
			panic("core: allocator made no progress")
		}
		if addr, ok := c.tryAlloc(r, mode); ok {
			plat, err := c.program(addr, lba)
			lat += plat
			if err != nil {
				if errors.Is(err, nand.ErrProgramFailed) {
					// The slot is burned but the data is safe in the
					// caller's hands: count the failure, retire the
					// block if it keeps failing, and remap to the
					// next free page.
					c.stats.ProgramFailures++
					c.stats.Remaps++
					c.noteProgramFailure(addr.Block, true)
					continue
				}
				panic(err)
			}
			return addr, lat
		}
		if c.dead {
			return nand.Addr{}, lat
		}
		if b := r.popFree(); b >= 0 {
			c.openBlock(r, b)
			continue
		}
		c.reclaim(r)
	}
}

// program writes lba's token to the free page at addr and, when the
// program succeeds, registers the page as a fresh valid copy of lba.
// A failed program is returned to the caller, which owns the response.
func (c *Cache) program(addr nand.Addr, lba int64) (sim.Duration, error) {
	lat, err := c.dev.Program(addr, uint64(lba))
	if err != nil {
		return lat, err
	}
	c.meta[addr.Block].progFails = 0
	st := c.fpst.At(addr)
	st.Valid = true
	st.LBA = lba
	st.Access = 0
	st.InsertedAt = c.seq
	c.addValid(addr.Block, 1)
	return lat, nil
}

// noteProgramFailure records one program failure on block b and, when
// allowed, retires the block after ProgramFailLimit consecutive
// failures (the grown-bad-block response of real controllers).
// Retirement is deferred when the caller is mid-migration and the
// block's region bookkeeping is transiently inconsistent.
func (c *Cache) noteProgramFailure(b int, allowRetire bool) {
	m := &c.meta[b]
	m.progFails++
	if allowRetire && m.progFails >= c.cfg.ProgramFailLimit {
		c.retire(b)
	}
}

// invalidate marks a cached page dead and removes its mapping.
func (c *Cache) invalidate(addr nand.Addr) {
	st := c.fpst.At(addr)
	if !st.Valid {
		return
	}
	c.meta[addr.Block].accessSum += uint64(st.Access)
	c.fcht.Delete(st.LBA)
	st.Valid = false
	st.LBA = tables.InvalidLBA
	st.Access = 0
	c.addValid(addr.Block, -1)
}

// validPagesOf lists the valid page addresses of block b.
func (c *Cache) validPagesOf(b int) []nand.Addr {
	return c.appendValidPagesOf(nil, b)
}

// appendValidPagesOf appends block b's valid page addresses to dst and
// returns the extended slice. Reclaim paths pass the cache-owned
// pagesScratch buffer to stay off the allocator; a call site may only
// do so when nothing in its iteration body can reach another
// scratch-backed listing (retire and evictBlock both use the scratch,
// so e.g. the GC relocation loop, whose allocProgram can retire a
// block mid-flight, lists into its own gcPages buffer instead).
func (c *Cache) appendValidPagesOf(dst []nand.Addr, b int) []nand.Addr {
	for s := 0; s < nand.SlotsPerBlock; s++ {
		subs := 1
		if c.dev.Mode(nand.Addr{Block: b, Slot: s}) == wear.MLC {
			subs = 2
		}
		for sub := 0; sub < subs; sub++ {
			a := nand.Addr{Block: b, Slot: s, Sub: sub}
			if c.fpst.At(a).Valid {
				dst = append(dst, a)
			}
		}
	}
	return dst
}
