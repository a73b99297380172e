package core

import (
	"errors"
	"fmt"

	"flashdc/internal/ecc"
	"flashdc/internal/fault"
	"flashdc/internal/nand"
	"flashdc/internal/policy"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
	"flashdc/internal/wear"
)

// Campaign checkpointing: a checkpoint captures the complete
// simulation state so a multi-year wear campaign can stop and resume
// with the continuation bit-identical to an unbroken run. Beyond the
// management tables and the Flash contents that means exact region LRU
// recency, allocator cursors and heuristic accumulators, the fault
// injector's RNG position, retention dwell stamps, per-block disturb
// counters and the pending scrub deadline. The metadata image
// (SaveMetadata) is the same snapshot with everything a power cycle
// loses cleared (see powerCycle in persist.go); both load through one
// validator.
//
// The wear trajectories (per-page bit-error curves) are intentionally
// NOT serialised: they are a pure function of (Config.Seed, geometry)
// and the restored erase counts, so New rebuilds them exactly.

// CheckpointBlock is one erase block's management state.
type CheckpointBlock struct {
	State                 uint8
	Region                int
	Valid, Consumed       int
	CursorSlot, CursorSub int
	AccessSum, LastErase  uint64
	ProgFails             int
	Status                tables.BlockStatus
}

// CheckpointRegion is one allocation region's state. Order matters
// everywhere: Free is popped from the end, LRU is listed front (most
// recently used) to back.
type CheckpointRegion struct {
	Free   []int
	Open   int
	LRU    []int
	Blocks int
}

// CacheCheckpoint is the complete state of one Flash cache.
type CacheCheckpoint struct {
	FlashBytes int64

	Pages   [][]([2]tables.PageStatus)
	Blocks  []CheckpointBlock
	Regions []CheckpointRegion
	FGST    tables.FGST
	Device  nand.DeviceCheckpoint

	Stats        Stats
	Seq, GCCheck uint64
	TotalValid   int64
	MarginalFreq float64
	Dead         bool
	BusyUntil    sim.Time

	ScrubTick             uint64
	ScrubBlock, ScrubSlot int
	ScrubSub              int

	// Injector is the fault injector's RNG/counter state;
	// HasInjector false records that the run had no injector.
	Injector    fault.InjectorState
	HasInjector bool

	// AdmitState is the admission policy's filter state in canonical
	// (LBA-sorted, map-free) form, so checkpoint bytes are a pure
	// function of simulation history. Empty under the default paper
	// admission; restoring a non-empty state into a cache configured
	// with the paper policy is rejected as a configuration mismatch.
	AdmitState []policy.AdmitEntry
}

// Checkpoint captures the cache's complete state. The cache must be
// quiescent (no in-flight operation). It fails on payload-carrying
// devices, which the token-driven simulation paths never create, and
// on non-default scheduler geometry: the per-channel/per-bank
// timelines and pending coalescing-buffer flushes are not serialised
// (BusyUntil carries the whole story only for the serial 1×1 device),
// so campaigns checkpoint at the default geometry or not at all —
// fdcsim rejects the combination up front.
func (c *Cache) Checkpoint() (*CacheCheckpoint, error) {
	if c.sched.Active() {
		return nil, fmt.Errorf("core: checkpointing is not supported with a non-default NAND scheduler (channels/banks/write buffer)")
	}
	return c.snapshot()
}

// snapshot captures the cache's complete state at any scheduler
// geometry; Checkpoint and SaveMetadata are its two callers.
func (c *Cache) snapshot() (*CacheCheckpoint, error) {
	dev, err := c.dev.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("core: checkpointing device: %w", err)
	}
	ck := &CacheCheckpoint{
		FlashBytes: c.cfg.FlashBytes,
		Pages:      make([][]([2]tables.PageStatus), len(c.meta)),
		Blocks:     make([]CheckpointBlock, len(c.meta)),
		Regions:    make([]CheckpointRegion, len(c.regions)),
		FGST:       c.fgst,
		Device:     dev,

		Stats:        c.stats,
		Seq:          c.seq,
		GCCheck:      c.gcCheck,
		TotalValid:   c.totalValid,
		MarginalFreq: c.marginalFreq,
		Dead:         c.dead,
		BusyUntil:    c.sched.Horizon(),

		ScrubTick:  c.scrubTick,
		ScrubBlock: c.scrubBlock,
		ScrubSlot:  c.scrubSlot,
		ScrubSub:   c.scrubSub,
	}
	if inj := c.dev.FaultInjector(); inj != nil {
		ck.Injector = inj.Checkpoint()
		ck.HasInjector = true
	}
	ck.AdmitState = c.admitPol.checkpoint()
	for b := range c.meta {
		ck.Pages[b] = make([]([2]tables.PageStatus), nand.SlotsPerBlock)
		for s := 0; s < nand.SlotsPerBlock; s++ {
			for sub := 0; sub < 2; sub++ {
				ck.Pages[b][s][sub] = *c.fpst.At(nand.Addr{Block: b, Slot: s, Sub: sub})
			}
		}
		m := &c.meta[b]
		ck.Blocks[b] = CheckpointBlock{
			State:      uint8(m.state),
			Region:     m.region,
			Valid:      m.valid,
			Consumed:   m.consumed,
			CursorSlot: m.cursorSlot,
			CursorSub:  m.cursorSub,
			AccessSum:  m.accessSum,
			LastErase:  m.lastEraseSeq,
			ProgFails:  m.progFails,
			Status:     *c.fbst.At(b),
		}
	}
	for i, r := range c.regions {
		cr := CheckpointRegion{
			Free:   append([]int(nil), r.free...),
			Open:   r.open,
			Blocks: r.blocks,
		}
		for b := r.head; b != noBlock; b = c.meta[b].next {
			cr.LRU = append(cr.LRU, int(b))
		}
		ck.Regions[i] = cr
	}
	return ck, nil
}

// Restore overwrites the cache's state with a checkpoint taken from a
// cache built with the same configuration. The receiver should be
// fresh from New (with any clock already attached); mid-run restores
// would leak the previous contents' event state. A checkpoint that
// does not fit the configuration, or describes a state no run could
// reach, is rejected before anything is applied and leaves the
// receiver untouched.
func (c *Cache) Restore(ck *CacheCheckpoint) error {
	if c.sched.Active() {
		return errSchedRestore
	}
	return c.restore(ck)
}

// ValidateCheckpoint reports whether Restore would accept ck, without
// applying any of it. A multi-part restore (every tier of every shard)
// validates all its parts first, so that a refusal changes nothing.
func (c *Cache) ValidateCheckpoint(ck *CacheCheckpoint) error {
	if c.sched.Active() {
		return errSchedRestore
	}
	_, err := c.validate(ck)
	return err
}

var errSchedRestore = errors.New("core: restoring into a non-default NAND scheduler (channels/banks/write buffer) is not supported")

// restore is Restore at any scheduler geometry, the shared tail of
// Restore and LoadMetadata: validate everything, then apply.
func (c *Cache) restore(ck *CacheCheckpoint) error {
	fcht, err := c.validate(ck)
	if err != nil {
		return err
	}
	if inj := c.dev.FaultInjector(); inj != nil {
		if err := inj.Restore(ck.Injector); err != nil {
			panic("core: internal: validated injector state refused: " + err.Error())
		}
	}
	if err := c.admitPol.restore(ck.AdmitState); err != nil {
		panic("core: internal: validated admission state refused: " + err.Error())
	}
	if err := c.dev.Restore(ck.Device); err != nil {
		panic("core: internal: validated device checkpoint refused: " + err.Error())
	}

	c.fcht = fcht
	for b := range c.meta {
		for s := 0; s < nand.SlotsPerBlock; s++ {
			for sub := 0; sub < 2; sub++ {
				*c.fpst.At(nand.Addr{Block: b, Slot: s, Sub: sub}) = ck.Pages[b][s][sub]
			}
		}
		cb := &ck.Blocks[b]
		c.meta[b] = blockMeta{
			state:        blockLifecycle(cb.State),
			region:       cb.Region,
			valid:        cb.Valid,
			consumed:     cb.Consumed,
			cursorSlot:   cb.CursorSlot,
			cursorSub:    cb.CursorSub,
			accessSum:    cb.AccessSum,
			lastEraseSeq: cb.LastErase,
			progFails:    cb.ProgFails,
		}
		*c.fbst.At(b) = cb.Status
	}
	for i, r := range c.regions {
		cr := &ck.Regions[i]
		r.free = append(r.free[:0], cr.Free...)
		r.open = cr.Open
		r.blocks = cr.Blocks
		c.relinkLRU(r, cr.LRU)
	}
	c.fgst = ck.FGST
	c.stats = ck.Stats
	c.seq = ck.Seq
	c.gcCheck = ck.GCCheck
	c.totalValid = ck.TotalValid
	c.marginalFreq = ck.MarginalFreq
	c.dead = ck.Dead
	c.sched.SetBusy(ck.BusyUntil)
	c.scrubTick = ck.ScrubTick
	c.scrubBlock = ck.ScrubBlock
	c.scrubSlot = ck.ScrubSlot
	c.scrubSub = ck.ScrubSub
	c.recountRegions()

	if err := c.CheckIntegrity(); err != nil {
		return fmt.Errorf("core: checkpoint fails integrity audit (wrong configuration?): %w", err)
	}
	return nil
}

// validate checks that ck describes a state this cache could have
// reached, before any of it is applied: geometry, every table entry's
// range, the page table against the device contents, and every block
// in exactly one region structure — the one its state names. It
// returns the FCHT rebuilt from the page table; a duplicate LBA shows
// up as an existing mapping. A state that passes also passes
// CheckIntegrity, and runs without tripping a range check.
func (c *Cache) validate(ck *CacheCheckpoint) (*tables.FCHT, error) {
	blocks := len(c.meta)
	if ck.FlashBytes != c.cfg.FlashBytes {
		return nil, fmt.Errorf("core: checkpoint for %dB Flash, config says %dB", ck.FlashBytes, c.cfg.FlashBytes)
	}
	if len(ck.Pages) != blocks || len(ck.Blocks) != blocks || len(ck.Device.Blocks) != blocks {
		return nil, fmt.Errorf("core: checkpoint for %d/%d/%d blocks, cache has %d",
			len(ck.Pages), len(ck.Blocks), len(ck.Device.Blocks), blocks)
	}
	if len(ck.Regions) != len(c.regions) {
		return nil, fmt.Errorf("core: checkpoint has %d regions, cache has %d", len(ck.Regions), len(c.regions))
	}
	if inj := c.dev.FaultInjector(); ck.HasInjector != (inj != nil) {
		return nil, fmt.Errorf("core: checkpoint injector presence %v, config says %v", ck.HasInjector, inj != nil)
	}
	// The injector and the admission policy refuse some states of their
	// own: dry-run both on scratch instances, so applying cannot fail.
	if ck.HasInjector {
		if err := new(sim.RNG).SetState(ck.Injector.RNG); err != nil {
			return nil, fmt.Errorf("core: fault injector state: %w", err)
		}
	}
	_, admit, _ := newPolicies(c, c.cfg.Policies)
	if err := admit.restore(ck.AdmitState); err != nil {
		return nil, fmt.Errorf("core: admission policy state: %w", err)
	}
	if ck.ScrubBlock < 0 || ck.ScrubBlock > blocks || ck.ScrubSlot < 0 || ck.ScrubSlot >= nand.SlotsPerBlock ||
		ck.ScrubSub < 0 || ck.ScrubSub > 1 {
		return nil, fmt.Errorf("core: scrub cursor b%d/s%d.%d out of range", ck.ScrubBlock, ck.ScrubSlot, ck.ScrubSub)
	}
	// ForcedStrength may pin pages beyond the programmable range.
	maxStrength := max(ecc.MaxStrength, c.cfg.BaseStrength)
	fcht := tables.NewFCHT(blocks)
	for b := range ck.Blocks {
		cb, db := &ck.Blocks[b], &ck.Device.Blocks[b]
		state := blockLifecycle(cb.State)
		if state > blockRetired {
			return nil, fmt.Errorf("core: block %d in impossible state %d", b, cb.State)
		}
		if cb.Region < 0 || cb.Region >= len(c.regions) {
			return nil, fmt.Errorf("core: block %d in region %d of %d", b, cb.Region, len(c.regions))
		}
		retired := state == blockRetired
		if db.Retired != retired || cb.Status.Retired != retired {
			return nil, fmt.Errorf("core: block %d retired in allocator %v, device %v, FBST %v",
				b, retired, db.Retired, cb.Status.Retired)
		}
		if db.EraseCount < 0 || db.EraseCount > persistMaxErases || db.Reads < 0 {
			return nil, fmt.Errorf("core: block %d erase count %d or read count %d out of range",
				b, db.EraseCount, db.Reads)
		}
		if cb.Status.Erases < 0 || cb.Status.TotalECC < 0 || cb.Status.TotalSLC < 0 {
			return nil, fmt.Errorf("core: block %d has negative wear statistics", b)
		}
		if len(ck.Pages[b]) != nand.SlotsPerBlock || len(db.Slots) != nand.SlotsPerBlock {
			return nil, fmt.Errorf("core: block %d has %d/%d slots, want %d",
				b, len(ck.Pages[b]), len(db.Slots), nand.SlotsPerBlock)
		}
		if cb.CursorSlot < 0 || cb.CursorSlot > nand.SlotsPerBlock || cb.CursorSub < 0 || cb.CursorSub > 1 {
			return nil, fmt.Errorf("core: block %d cursor %d/%d out of range", b, cb.CursorSlot, cb.CursorSub)
		}
		// Free and open blocks allocate from the cursor on, so every
		// page there must still be erased.
		allocating := state == blockFree || state == blockOpen
		// passed counts the page positions before the cursor: every
		// allocation, skip or burned page advances both together.
		passed, valid := cb.CursorSub, 0
		for s := 0; s < nand.SlotsPerBlock; s++ {
			slot := &db.Slots[s]
			if slot.Mode > wear.MLC {
				return nil, fmt.Errorf("core: slot b%d/s%d in unknown density mode", b, s)
			}
			subs := 1
			if slot.Mode == wear.MLC {
				subs = 2
			}
			if s < cb.CursorSlot {
				passed += subs
			}
			if allocating && s == cb.CursorSlot && cb.CursorSub == 1 && subs == 1 {
				return nil, fmt.Errorf("core: block %d cursor on the second sub-page of SLC slot %d", b, s)
			}
			for sub := 0; sub < 2; sub++ {
				ps := &ck.Pages[b][s][sub]
				if ps.Strength < 1 || ps.Strength > maxStrength ||
					ps.StagedStrength < 1 || ps.StagedStrength > maxStrength {
					return nil, fmt.Errorf("core: page b%d/s%d.%d ECC strength %d/%d out of range",
						b, s, sub, ps.Strength, ps.StagedStrength)
				}
				if ps.Mode != slot.Mode || ps.StagedMode > wear.MLC {
					return nil, fmt.Errorf("core: page b%d/s%d.%d density disagrees with the device", b, s, sub)
				}
				if allocating && (s > cb.CursorSlot || s == cb.CursorSlot && sub >= cb.CursorSub) &&
					slot.Programmed[sub] {
					return nil, fmt.Errorf("core: page b%d/s%d.%d beyond the allocation cursor is programmed", b, s, sub)
				}
				if !ps.Valid {
					continue
				}
				valid++
				if sub >= subs || ps.LBA < 0 || !slot.Programmed[sub] || slot.Data[sub] != uint64(ps.LBA) {
					return nil, fmt.Errorf("core: page b%d/s%d.%d claims LBA %d the device does not hold",
						b, s, sub, ps.LBA)
				}
				if _, dup := fcht.Get(ps.LBA); dup {
					return nil, fmt.Errorf("core: LBA %d cached twice", ps.LBA)
				}
				fcht.Put(ps.LBA, nand.Addr{Block: b, Slot: s, Sub: sub})
			}
		}
		if cb.Consumed != passed || cb.Valid > cb.Consumed {
			return nil, fmt.Errorf("core: block %d claims %d valid of %d consumed pages, cursor passed %d",
				b, cb.Valid, cb.Consumed, passed)
		}
		if valid != cb.Valid {
			return nil, fmt.Errorf("core: block %d counts %d valid pages, page table holds %d", b, cb.Valid, valid)
		}
		if valid != 0 && (state == blockFree || retired) {
			return nil, fmt.Errorf("core: block %d in state %d holds %d valid pages", b, state, valid)
		}
	}
	if int64(fcht.Len()) != ck.TotalValid {
		return nil, fmt.Errorf("core: %d valid pages in the page table, %d counted globally", fcht.Len(), ck.TotalValid)
	}
	// Every live block sits in exactly one structure of its region:
	// the free list, the open slot or the LRU, as its state says.
	listed := make([]bool, blocks)
	claim := func(region, b int, want blockLifecycle) error {
		if b < 0 || b >= blocks {
			return fmt.Errorf("core: region %d lists block %d of %d", region, b, blocks)
		}
		if listed[b] {
			return fmt.Errorf("core: block %d listed twice", b)
		}
		listed[b] = true
		if cb := &ck.Blocks[b]; blockLifecycle(cb.State) != want || cb.Region != region {
			return fmt.Errorf("core: region %d lists block %d (state %d, region %d) as state %d",
				region, b, cb.State, cb.Region, want)
		}
		return nil
	}
	for i := range ck.Regions {
		cr := &ck.Regions[i]
		population := len(cr.Free) + len(cr.LRU)
		for _, b := range cr.Free {
			if err := claim(i, b, blockFree); err != nil {
				return nil, err
			}
		}
		if cr.Open != -1 {
			if err := claim(i, cr.Open, blockOpen); err != nil {
				return nil, err
			}
			population++
		}
		for _, b := range cr.LRU {
			if err := claim(i, b, blockActive); err != nil {
				return nil, err
			}
		}
		if population != cr.Blocks {
			return nil, fmt.Errorf("core: region %d holds %d blocks, accounts for %d", i, population, cr.Blocks)
		}
		if population < 2 && !ck.Dead {
			return nil, fmt.Errorf("core: region %d operates on %d blocks, below the minimum of 2", i, population)
		}
	}
	for b := range ck.Blocks {
		if !listed[b] && blockLifecycle(ck.Blocks[b].State) != blockRetired {
			return nil, fmt.Errorf("core: block %d in state %d belongs to no region structure", b, ck.Blocks[b].State)
		}
	}
	return fcht, nil
}
