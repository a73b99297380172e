package core

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"flashdc/internal/envelope"
	"flashdc/internal/fault"
	"flashdc/internal/nand"
	"flashdc/internal/sim"
)

// Metadata persistence: the paper keeps the management tables in DRAM
// at run time but sources them from the hard disk ("These tables are
// read from the hard disk drive and stored in DRAM at run-time",
// section 3). SaveMetadata writes the FCHT/FPST/FBST/FGST state plus
// the allocator bookkeeping so a cache can shut down and resume with
// its Flash contents intact — Flash is non-volatile, only the DRAM
// tables need rebuilding.
//
// The image is a CacheCheckpoint projected onto what survives a power
// cycle (powerCycle), so the metadata image and the campaign
// checkpoint are one model of the cache's state, loaded through one
// validator. Because the image lives on the very disk the cache
// fronts, a crash mid-write leaves a truncated or torn snapshot; the
// self-validating envelope (internal/envelope: magic "FDCM", format
// version, length, gob payload, CRC-32 trailer) catches those, and the
// validator catches images that are intact but impossible. Either way
// LoadMetadata refuses with an error matching ErrCorruptMetadata
// before anything is restored; Open with WithRecovery is the degraded
// path that cold-starts instead.

// ErrCorruptMetadata tags every corruption-class load failure:
// truncation, bad magic, wrong version, CRC mismatch, gob decode
// errors and semantically impossible images. Test with errors.Is.
var ErrCorruptMetadata = errors.New("core: corrupt metadata image")

const (
	// persistVersion 3 is the power-cycled CacheCheckpoint; version 2
	// images (a separate table layout) are refused as corrupt.
	persistVersion = 3
	persistMagic   = "FDCM"
	// persistMaxErases bounds the per-block erase counts a restore
	// accepts. Legitimate images stay far below (SLC endurance is 100k
	// cycles); the bound rejects crafted or corrupted counts.
	persistMaxErases = 1 << 20
)

// SaveMetadata writes the management tables to w inside the
// self-validating envelope. The cache must be quiescent (no in-flight
// operation).
func (c *Cache) SaveMetadata(w io.Writer) error {
	ck, err := c.snapshot()
	if err != nil {
		return err
	}
	ck.powerCycle()
	return envelope.Write(w, persistMagic, persistVersion, ck)
}

// powerCycle clears what a restart loses, leaving the tables the paper
// sources from disk (FPST, FBST, FGST, block bookkeeping) and the
// Flash contents they describe. Gone are the run's counters, the
// device's operation counts, dwell stamps and disturb counts,
// heuristic accumulators, the access clock, every cursor and timeline
// that lives in DRAM, the admission filter and the fault campaign's
// position (the loader supplies a fresh one). Pages that hold no valid
// data read back as erased, and the recency order is lost: free lists
// and LRUs come back in ascending block order.
func (ck *CacheCheckpoint) powerCycle() {
	ck.Stats = Stats{RetiredBlocks: ck.Stats.RetiredBlocks}
	ck.Device.Stats = nand.Stats{}
	for b := range ck.Blocks {
		cb, db := &ck.Blocks[b], &ck.Device.Blocks[b]
		cb.AccessSum, cb.LastErase, cb.ProgFails = 0, 0, 0
		db.Reads, db.GrownBad = 0, false
		for s := range db.Slots {
			slot := &db.Slots[s]
			slot.ProgrammedAt = [2]sim.Time{}
			for sub := 0; sub < 2; sub++ {
				ck.Pages[b][s][sub].InsertedAt = 0
				if !ck.Pages[b][s][sub].Valid {
					slot.Programmed[sub], slot.Data[sub] = false, 0
				}
			}
		}
	}
	for i := range ck.Regions {
		sort.Ints(ck.Regions[i].Free)
		sort.Ints(ck.Regions[i].LRU)
	}
	ck.Seq, ck.GCCheck, ck.MarginalFreq, ck.BusyUntil = 0, 0, -1, 0
	ck.ScrubTick, ck.ScrubBlock, ck.ScrubSlot, ck.ScrubSub = 0, 0, 0, 0
	ck.Injector, ck.HasInjector, ck.AdmitState = fault.InjectorState{}, false, nil
}

// LoadMetadata rebuilds a cache from a metadata image and the original
// configuration. The configuration must match the one the image was
// saved under (same FlashBytes, Split, Seed — the wear state is
// reconstructed deterministically from them).
//
// A truncated, bit-flipped or internally inconsistent image is
// rejected with an error wrapping ErrCorruptMetadata; the function
// never returns a cache built from a suspect image. Open with
// WithRecovery is the degraded cold-start path.
func LoadMetadata(cfg Config, r io.Reader) (*Cache, error) {
	var ck CacheCheckpoint
	if err := envelope.Read(r, persistMagic, persistVersion, &ck); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptMetadata, err)
	}
	if ck.FlashBytes != cfg.FlashBytes {
		return nil, fmt.Errorf("core: metadata for %dB Flash, config says %dB",
			ck.FlashBytes, cfg.FlashBytes)
	}
	c := New(cfg)
	// The fault campaign restarts where a fresh build leaves it.
	if inj := c.dev.FaultInjector(); inj != nil {
		ck.Injector, ck.HasInjector = inj.Checkpoint(), true
	}
	if err := c.restore(&ck); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptMetadata, err)
	}
	return c, nil
}

// RecoveryReport describes how a cache came back from a metadata
// image.
type RecoveryReport struct {
	// ColdStart is true when the image was rejected and the cache was
	// rebuilt empty. The Flash contents are abandoned as cache state
	// (they are only a cache — the disk still holds every page), so no
	// data is lost and no wrong data can be served; the cost is a cold
	// miss stream while the cache refills.
	ColdStart bool
	// Err is the load failure that forced the cold start, nil when the
	// image loaded cleanly. errors.Is(Err, ErrCorruptMetadata)
	// distinguishes corruption from configuration mismatches.
	Err error
}
