package core

import (
	"errors"

	"flashdc/internal/ecc"
	"flashdc/internal/nand"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
	"flashdc/internal/wear"
)

// applyStagedAndErase erases block b, applies every staged page
// configuration (section 5.2: "updated page settings are applied on
// the next erase and write access"), resets the cache metadata, and
// returns the erase latency. Valid pages must already be gone. An
// erase failure retires the block (the grown-bad-block response);
// callers observe this through the block's state, never an error.
func (c *Cache) applyStagedAndErase(b int) sim.Duration {
	m := &c.meta[b]
	if m.valid != 0 {
		panic("core: erasing a block with valid pages")
	}
	disturbReads := int64(0)
	if c.cfg.Disturb.Enabled() {
		disturbReads = c.dev.BlockReads(b)
	}
	lat, err := c.dev.Erase(b)
	if err != nil {
		if errors.Is(err, nand.ErrEraseFailed) {
			c.stats.EraseFailures++
			c.retire(b)
			return lat
		}
		panic(err)
	}
	if disturbReads > 0 {
		// The erase re-programmed every cell, discarding the block's
		// accumulated read-disturb stress.
		c.stats.DisturbResets++
		c.eventDisturbReset(b, disturbReads)
	}
	m.progFails = 0
	c.fbst.At(b).Erases++
	for s := 0; s < nand.SlotsPerBlock; s++ {
		slotAddr := nand.Addr{Block: b, Slot: s}
		desired := c.fpst.At(slotAddr).StagedMode
		if c.dev.Mode(slotAddr) != desired {
			c.setSlotMode(b, s, desired)
		}
		for sub := 0; sub < 2; sub++ {
			st := c.fpst.At(nand.Addr{Block: b, Slot: s, Sub: sub})
			st.Mode = desired
			st.Strength = st.StagedStrength
			st.Valid = false
			st.Access = 0
		}
	}
	freq := c.blockFreqEstimate(b)
	m.valid = 0
	m.consumed = 0
	m.cursorSlot = 0
	m.cursorSub = 0
	m.accessSum = 0
	m.lastEraseSeq = c.seq
	m.state = blockFree
	// Post-erase reliability pass: pages whose wear already exceeds
	// their (freshly applied) strength must be reconfigured before
	// reuse, or the block retired when both knobs are exhausted.
	if !c.ensureReliable(b, freq) {
		c.retire(b)
	}
	return lat
}

// ensureReliable checks every slot of the just-erased block b against
// the wear model and reconfigures pages whose wear already exceeds
// their correction capability — data written there would be lost
// immediately. Pages merely *at* the limit are left for the read-time
// heuristic (section 5.2.1), which has per-page frequency knowledge.
// It reports false when the block is beyond help.
func (c *Cache) ensureReliable(b int, freq float64) bool {
	for s := 0; s < nand.SlotsPerBlock; s++ {
		slotAddr := nand.Addr{Block: b, Slot: s}
		for {
			errs := c.dev.BitErrors(slotAddr)
			st := c.fpst.At(slotAddr)
			if errs <= int(st.Strength) {
				break
			}
			if !c.cfg.Programmable {
				return false
			}
			if !c.reconfigure(b, slotAddr, errs, freq) {
				return false
			}
			// Apply the new staging immediately: the block is erased,
			// so both knobs are legal right now.
			desired := st.StagedMode
			if c.dev.Mode(slotAddr) != desired {
				c.setSlotMode(b, s, desired)
			}
			for sub := 0; sub < 2; sub++ {
				p := c.fpst.At(nand.Addr{Block: b, Slot: s, Sub: sub})
				p.Mode = desired
				p.Strength = p.StagedStrength
			}
		}
	}
	return true
}

// blockFreqEstimate approximates the relative access frequency of the
// traffic a block carried during its last lifetime, from the access
// counters captured at invalidation time.
func (c *Cache) blockFreqEstimate(b int) float64 {
	m := &c.meta[b]
	window := c.seq - m.lastEraseSeq
	if window == 0 || m.consumed == 0 {
		return 0
	}
	perPage := float64(m.accessSum) / float64(m.consumed)
	return perPage / float64(window)
}

// retire permanently removes block b (section 5.2: ECC and density
// limits both reached). Dirty pages are flushed first.
func (c *Cache) retire(b int) {
	m := &c.meta[b]
	if m.state == blockRetired {
		return
	}
	c.eventRetire(b, m.valid)
	c.dropPages(b, false)
	r := c.regions[m.region]
	switch m.state {
	case blockOpen:
		// Guard against a block tagged open while detached from the
		// region (mid-migration): only clear the slot it occupies.
		if r.open == b {
			c.clearOpen(r)
		}
	case blockActive:
		if m.onLRU() {
			c.removeActive(r, b)
		}
	case blockFree:
		r.takeFree(b)
	}
	r.blocks--
	m.state = blockRetired
	c.dev.Retire(b)
	c.fbst.At(b).Retired = true
	c.stats.RetiredBlocks++
	if r.blocks < 2 {
		c.dead = true
	}
}

// reclaim produces at least one free block (or usable open-block
// space) in region r, via garbage collection of a fully invalid block
// when one exists, otherwise by evicting a block under the wear-level
// aware policy. Called when allocation stalls, so relocation-style GC
// is not possible here (no headroom); backgroundGC handles that case
// proactively.
func (c *Cache) reclaim(r *region) {
	// Fast path: a fully invalid active block just needs an erase.
	for lb := r.tail; lb != noBlock; lb = c.meta[lb].prev {
		b := int(lb)
		if c.meta[b].valid == 0 {
			c.removeActive(r, b)
			c.stats.GCRuns++
			c.stats.GCTime += c.applyStagedAndErase(b)
			if c.meta[b].state == blockFree {
				r.addFreeReclaimed(b)
				if c.evictPol.rotate() {
					c.maybeWearRotate(b)
				}
			}
			return
		}
	}
	c.evict(r)
}

// addFreeReclaimed returns an erased block to the free list without
// recounting it in the population (it never left).
func (r *region) addFreeReclaimed(b int) { r.free = append(r.free, b) }

// evict removes one block's content to make space. Victim selection
// is the eviction policy's call — the default wear-lru policy takes
// the LRU block and then honours section 3.6: after the victim is
// freed, a worn victim swaps roles with the globally newest block
// (the newest block's content migrates into the victim and the newest
// block is erased for reuse instead).
func (c *Cache) evict(r *region) {
	victim := c.evictPol.victim(c, r)
	if victim < 0 {
		// Nothing active: the region is degenerate (all space open or
		// retired). Close the open block so it becomes evictable.
		if r.open >= 0 {
			c.closeOpen(r)
			victim = c.evictPol.victim(c, r)
		}
		if victim < 0 {
			c.dead = true
			return
		}
	}
	c.evictBlock(victim)
	if c.evictPol.rotate() && c.meta[victim].state == blockFree {
		c.maybeWearRotate(victim)
	}
}

// newestActive finds the active block with minimum degree of wear
// across the whole Flash ("newest blocks are chosen from the entire
// set of Flash blocks").
func (c *Cache) newestActive() (int, float64, bool) {
	best := -1
	bestWear := 0.0
	for _, r := range c.regions {
		for b := r.head; b != noBlock; b = c.meta[b].next {
			if w := c.fbst.WearOut(int(b)); best == -1 || w < bestWear {
				best, bestWear = int(b), w
			}
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	return best, bestWear, true
}

// evictBlock drops (read region) or flushes (write region) the valid
// pages of block b, erases it and returns it to its region's free
// list.
func (c *Cache) evictBlock(b int) {
	m := &c.meta[b]
	r := c.regions[m.region]
	c.dropPages(b, true)
	if m.state == blockActive && m.onLRU() {
		c.removeActive(r, b)
	} else if m.state == blockOpen {
		c.clearOpen(r)
	}
	c.stats.Evictions++
	c.applyStagedAndErase(b)
	if c.meta[b].state == blockFree {
		r.addFreeReclaimed(b)
	}
}

// dropPages invalidates every valid page of block b, writing each back
// first when b's region is dirty, and returns how many it dropped. An
// eviction (evicting set) also feeds each page's access frequency to
// the marginal-page estimate.
func (c *Cache) dropPages(b int, evicting bool) int {
	dirty := c.dirty(c.meta[b].region)
	c.pagesScratch = c.appendValidPagesOf(c.pagesScratch[:0], b)
	for _, a := range c.pagesScratch {
		st := c.fpst.At(a)
		if evicting {
			c.noteMarginal(st)
		}
		if dirty {
			c.writeBack(st.LBA)
		}
		c.invalidate(a)
	}
	return len(c.pagesScratch)
}

// dirty reports whether region holds data the backing store has not
// seen: a page is dirty only in the split cache's write region. The
// unified baseline keeps no dirty state, so a written page it drops is
// never written back.
func (c *Cache) dirty(region int) bool { return len(c.regions) == 2 && region == writeRegion }

// writeBack hands lba's page to the backing store, counting it as
// flushed, and returns the write latency.
func (c *Cache) writeBack(lba int64) sim.Duration {
	c.stats.FlushedPages++
	return c.cfg.Backing.WritePage(lba)
}

// maybeWearRotate implements the migration path of section 3.6 for a
// just-erased block b: when b's degree of wear exceeds the globally
// newest active block's by the configured threshold, the newest
// block's live content migrates into b (parking stable data on the
// worn block) and the newest block is erased and handed to b's region
// as the fresh space instead. Region tags swap so population counts
// stay balanced. Returns false when no rotation was needed or it could
// not fit.
func (c *Cache) maybeWearRotate(b int) bool {
	// WearOut is never negative (its terms only grow and its weights
	// are positive), so b cannot out-wear any block by more than its
	// own wear: within the threshold there is no newest block to find.
	wearOut := c.fbst.WearOut(b)
	if wearOut <= c.cfg.WearThreshold {
		return false
	}
	newest, newestWear, ok := c.newestActive()
	if !ok || newest == b {
		return false
	}
	if wearOut-newestWear <= c.cfg.WearThreshold {
		return false
	}
	vm := &c.meta[b]
	nm := &c.meta[newest]
	homeRegion := c.regions[vm.region]
	newestRegion := c.regions[nm.region]

	content := c.validPagesOf(newest)
	// b must be able to hold the content: after erase slot modes are
	// free to set, so the constraint is slot count at the content's
	// densities.
	slcCount := 0
	for _, a := range content {
		if c.fpst.At(a).Mode == wear.SLC {
			slcCount++
		}
	}
	mlcCount := len(content) - slcCount
	if slcCount+(mlcCount+1)/2 > nand.SlotsPerBlock {
		return false
	}

	// Remove b from its free list; it is about to become active.
	homeRegion.takeFree(b)

	// Migrate newest's content into b, preserving each page's density
	// and strength demands.
	vm.state = blockOpen
	for _, a := range content {
		src := *c.fpst.At(a)
		c.invalidate(a)
		dst, ok := c.nextPage(b, src.Mode)
		if ok {
			if _, err := c.program(dst, src.LBA); err != nil {
				if !errors.Is(err, nand.ErrProgramFailed) {
					panic(err)
				}
				// Slot burned mid-migration. Retirement (if the block
				// keeps failing) waits until b's region bookkeeping is
				// consistent again.
				c.stats.ProgramFailures++
				c.noteProgramFailure(b, false)
				ok = false
			}
		}
		if !ok {
			// A burned slot, or a capacity shortfall the check above
			// rules out: write dirty data back rather than lose it.
			if c.dirty(nm.region) {
				c.writeBack(src.LBA)
			}
			continue
		}
		c.carry(dst, &src)
	}
	// b now plays the newest block's role in the newest's region.
	vm.state = blockActive
	vm.region = nm.region
	c.pushActive(newestRegion, b)

	// Erase the newest block and hand it to b's former region.
	if nm.onLRU() {
		c.removeActive(newestRegion, newest)
	}
	c.applyStagedAndErase(newest)
	if c.meta[newest].state == blockFree {
		nm.region = homeRegion.id
		homeRegion.addFreeReclaimed(newest)
	}
	c.stats.WearSwaps++
	c.eventWearRotate(b, newest, len(content))
	return true
}

func maxStrength(a, b ecc.Strength) ecc.Strength {
	if a > b {
		return a
	}
	return b
}

// relocate moves the valid page at a to fresh space in its own region:
// the one page move GC, the scrubber and the refresh pass share. The
// copy keeps the page's density and access heat, and the stronger of
// its staged ECC strength and the destination slot's; the source read
// and the copy's program are booked as background device work. With
// remap set, the read's bit errors first stage a stronger configuration
// on the source slot for the block's next life (section 5.2.1). It
// returns the time spent and whether the copy landed: when the cache
// dies during the allocation, a dirty page is written back rather than
// lost.
func (c *Cache) relocate(a nand.Addr, remap bool) (sim.Duration, bool) {
	st := c.fpst.At(a)
	src := *st
	region := c.meta[a.Block].region
	res, err := c.dev.Read(a)
	if err != nil {
		panic(err) // a valid page always reads
	}
	t := res.Latency
	c.sched.Background(a.Block, sched.OpRead, res.Latency)
	if remap && c.cfg.Programmable {
		c.reconfigure(a.Block, a, res.BitErrors, c.pageFreq(st))
	}
	c.invalidate(a)
	dst, lat := c.allocProgram(c.regions[region], src.Mode, src.LBA)
	if c.dead {
		if c.dirty(region) {
			c.writeBack(src.LBA)
		}
		return t, false
	}
	c.sched.Background(dst.Block, sched.OpProgram, lat)
	c.carry(dst, &src)
	return t + lat, true
}

// carry gives the freshly programmed copy at dst of page src its access
// heat and the stronger of the two staged strengths, and maps src's LBA
// to it.
func (c *Cache) carry(dst nand.Addr, src *tables.PageStatus) {
	d := c.fpst.At(dst)
	d.Access = src.Access
	d.StagedStrength = maxStrength(d.StagedStrength, src.StagedStrength)
	c.fcht.Put(src.LBA, dst)
}

// backgroundGC compacts invalid space without blocking the host: it
// relocates the valid pages of the GC policy's victim and erases it.
// Runs only when the region has enough free headroom to absorb the
// relocations, and returns the (background) time spent. The default
// greedy policy picks the most-invalid block and, unless force is
// set, skips blocks less than half invalid (the relocation traffic
// would exceed the space reclaimed — the unified cache's scattered
// invalid pages therefore linger, which is exactly the capacity loss
// section 3.5 attributes to it); the watermark trigger forces
// collection because the read region's aggregate capacity is already
// below target.
func (c *Cache) backgroundGC(r *region, force bool) sim.Duration {
	best, bestInvalid := c.gcPol.victim(c, r, force)
	if best < 0 {
		return 0
	}
	m := &c.meta[best]
	if c.freePagesIn(r) < m.valid+4 {
		return 0 // not enough headroom to relocate safely
	}
	c.eventGCStart(best, bestInvalid)
	relocatedBefore := c.stats.GCRelocations
	var t sim.Duration
	c.gcPages = c.appendValidPagesOf(c.gcPages[:0], best)
	c.removeActive(r, best)
	m.state = blockActive // detached; erased below
	for _, a := range c.gcPages {
		lat, ok := c.relocate(a, false)
		t += lat
		if !ok {
			// Allocation collapsed mid-relocation (mass retirement
			// under a fault campaign).
			break
		}
		c.stats.GCRelocations++
	}
	c.stats.GCRuns++
	// A dead break above leaves unrelocated pages behind; drop them
	// (writing dirty data back) so the erase invariant holds.
	c.dropPages(best, false)
	if c.meta[best].state != blockRetired {
		// The erase occupies only the victim's bank: sibling banks on
		// the same channel stay serviceable, which is the contention
		// relief channel/bank geometry buys GC-heavy workloads.
		el := c.applyStagedAndErase(best)
		t += el
		c.sched.Background(best, sched.OpErase, el)
		if c.meta[best].state == blockFree {
			r.addFreeReclaimed(best)
			if c.evictPol.rotate() {
				c.maybeWearRotate(best)
			}
		}
	}
	c.stats.GCTime += t
	c.eventGCEnd(best, int(c.stats.GCRelocations-relocatedBefore), int64(t))
	return t
}

// maybeGC runs the background collectors per section 5.1: the read
// region compacts when its valid fraction drops below the watermark;
// the write region compacts when free space runs low. The watermark
// is checked every 32 host operations; the check itself is O(1), but
// when GC fires is simulated behaviour, so the cadence stays.
func (c *Cache) maybeGC() {
	if len(c.regions) == 2 {
		c.gcCheck++
		if c.gcCheck&31 == 0 {
			rr := c.regions[readRegion]
			if rr.total > 0 && float64(rr.valid)/float64(rr.total) < c.cfg.Watermark {
				c.backgroundGC(rr, true)
			}
		}
		wr := c.regions[writeRegion]
		if c.freePagesIn(wr) < 2*c.pagesPerFreshBlock() {
			c.backgroundGC(wr, false)
		}
		return
	}
	r := c.regions[0]
	if c.freePagesIn(r) < 2*c.pagesPerFreshBlock() {
		c.backgroundGC(r, false)
	}
}
