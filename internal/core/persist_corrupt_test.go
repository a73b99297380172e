package core

import (
	"bytes"
	"errors"
	"testing"

	"flashdc/internal/envelope"
	"flashdc/internal/sim"
	"flashdc/internal/workload"
)

// savedImage builds a cache with non-trivial state and returns its
// metadata image.
func savedImage(t *testing.T) (Config, []byte) {
	t.Helper()
	cfg := DefaultConfig(8 * testMB)
	cfg.Seed = 91
	c := New(cfg)
	rng := sim.NewRNG(93)
	for i := 0; i < 20000; i++ {
		lba := int64(rng.Intn(3000))
		if rng.Bool(0.3) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	return cfg, buf.Bytes()
}

// TestLoadMetadataRejectsTruncation is the regression for the silent
// corruption acceptance the raw-gob format allowed: a crash mid-write
// leaves a prefix of the image, and every such prefix must be rejected
// with the typed corruption error — never loaded as a wrong cache.
func TestLoadMetadataRejectsTruncation(t *testing.T) {
	cfg, img := savedImage(t)
	// Every cut inside the header and trailer, plus a spread of cuts
	// through the payload.
	cuts := []int{}
	for n := 0; n < envelope.HeaderSize+8 && n < len(img); n++ {
		cuts = append(cuts, n)
	}
	for n := envelope.HeaderSize + 8; n < len(img); n += len(img)/64 + 1 {
		cuts = append(cuts, n)
	}
	cuts = append(cuts, len(img)-1)
	for _, n := range cuts {
		c, err := LoadMetadata(cfg, bytes.NewReader(img[:n]))
		if err == nil {
			t.Fatalf("image truncated to %d/%d bytes accepted", n, len(img))
		}
		if !errors.Is(err, ErrCorruptMetadata) {
			t.Fatalf("truncation to %d bytes: error %v not tagged ErrCorruptMetadata", n, err)
		}
		if c != nil {
			t.Fatalf("truncation to %d bytes returned a cache alongside the error", n)
		}
	}
}

// TestLoadMetadataRejectsBitFlips flips every bit of the envelope
// header and a spread of payload/trailer bytes: each single-bit
// corruption must be detected (magic, version and length checks for
// the header; CRC-32 for everything else).
func TestLoadMetadataRejectsBitFlips(t *testing.T) {
	cfg, img := savedImage(t)
	offsets := []int{}
	for off := 0; off < envelope.HeaderSize; off++ {
		offsets = append(offsets, off)
	}
	for off := envelope.HeaderSize; off < len(img); off += len(img)/64 + 1 {
		offsets = append(offsets, off)
	}
	offsets = append(offsets, len(img)-4, len(img)-1) // CRC trailer
	for _, off := range offsets {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), img...)
			mut[off] ^= 1 << bit
			c, err := LoadMetadata(cfg, bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("bit %d of byte %d flipped, image accepted", bit, off)
			}
			if !errors.Is(err, ErrCorruptMetadata) {
				t.Fatalf("flip at %d.%d: error %v not tagged ErrCorruptMetadata", off, bit, err)
			}
			if c != nil {
				t.Fatalf("flip at %d.%d returned a cache alongside the error", off, bit)
			}
		}
	}
}

// validPage returns the address of the first valid page in ck.
func validPage(t *testing.T, ck *CacheCheckpoint) (b, s, sub int) {
	t.Helper()
	for b := range ck.Pages {
		for s := range ck.Pages[b] {
			for sub := 0; sub < 2; sub++ {
				if ck.Pages[b][s][sub].Valid {
					return b, s, sub
				}
			}
		}
	}
	t.Fatal("snapshot caches nothing")
	return
}

// corruptions is the table of impossible states: each mutator breaks
// one invariant of a valid snapshot, and the validator must refuse the
// result before anything is restored.
var corruptions = map[string]func(t *testing.T, ck *CacheCheckpoint){
	"out-of-range region": func(_ *testing.T, ck *CacheCheckpoint) { ck.Blocks[0].Region = 99 },
	"impossible state":    func(_ *testing.T, ck *CacheCheckpoint) { ck.Blocks[0].State = 200 },
	"negative device erase count": func(_ *testing.T, ck *CacheCheckpoint) {
		ck.Device.Blocks[0].EraseCount = -1
	},
	"runaway device erase count": func(_ *testing.T, ck *CacheCheckpoint) {
		ck.Device.Blocks[0].EraseCount = 1 << 30
	},
	"valid-count mismatch": func(_ *testing.T, ck *CacheCheckpoint) {
		ck.Blocks[0].Valid += 3
		ck.Blocks[0].Consumed += 3
	},
	"oversized strength": func(_ *testing.T, ck *CacheCheckpoint) { ck.Pages[0][0][0].Strength = 99 },
	"oversized strength on a valid page": func(t *testing.T, ck *CacheCheckpoint) {
		b, s, sub := validPage(t, ck)
		ck.Pages[b][s][sub].Strength = 99
	},
	"cursor slot out of range": func(_ *testing.T, ck *CacheCheckpoint) { ck.Blocks[0].CursorSlot = 1000 },
	"scrub slot out of range":  func(_ *testing.T, ck *CacheCheckpoint) { ck.ScrubSlot = 1 << 20 },
	"scrub block out of range": func(_ *testing.T, ck *CacheCheckpoint) { ck.ScrubBlock = len(ck.Blocks) + 1 },
	"negative scrub block":     func(_ *testing.T, ck *CacheCheckpoint) { ck.ScrubBlock = -1 },
	"free entry out of range":  func(_ *testing.T, ck *CacheCheckpoint) { ck.Regions[0].Free = append(ck.Regions[0].Free, 1<<20) },
	"device slot count":        func(_ *testing.T, ck *CacheCheckpoint) { ck.Device.Blocks[0].Slots = ck.Device.Blocks[0].Slots[1:] },
	"global valid count":       func(_ *testing.T, ck *CacheCheckpoint) { ck.TotalValid++ },
	"block listed on two LRUs": func(t *testing.T, ck *CacheCheckpoint) {
		if len(ck.Regions[0].LRU) == 0 {
			t.Fatal("read region has no active blocks")
		}
		ck.Regions[1].LRU = append(ck.Regions[1].LRU, ck.Regions[0].LRU[0])
		ck.Regions[1].Blocks++
	},
	"duplicate LBA": func(t *testing.T, ck *CacheCheckpoint) {
		b, s, sub := validPage(t, ck)
		lba := ck.Pages[b][s][sub].LBA
		for b2 := range ck.Pages {
			for s2 := range ck.Pages[b2] {
				for sub2 := 0; sub2 < 2; sub2++ {
					if p := &ck.Pages[b2][s2][sub2]; p.Valid && p.LBA != lba {
						p.LBA = lba
						ck.Device.Blocks[b2].Slots[s2].Data[sub2] = uint64(lba)
						return
					}
				}
			}
		}
	},
	"page the device does not hold": func(t *testing.T, ck *CacheCheckpoint) {
		b, s, sub := validPage(t, ck)
		ck.Device.Blocks[b].Slots[s].Programmed[sub] = false
	},
	"density disagrees with the device": func(t *testing.T, ck *CacheCheckpoint) {
		b, s, _ := validPage(t, ck)
		ck.Device.Blocks[b].Slots[s].Mode ^= 1
	},
	"programmed page beyond the cursor": func(t *testing.T, ck *CacheCheckpoint) {
		for b := range ck.Blocks {
			if blockLifecycle(ck.Blocks[b].State) == blockFree {
				ck.Device.Blocks[b].Slots[0].Programmed[0] = true
				return
			}
		}
		t.Fatal("no free block")
	},
	"retired in the device only": func(_ *testing.T, ck *CacheCheckpoint) {
		for b := range ck.Blocks {
			if blockLifecycle(ck.Blocks[b].State) != blockRetired {
				ck.Device.Blocks[b].Retired = true
				return
			}
		}
	},
}

// TestCorruptStateRejected drives every corruption through both
// loaders: LoadMetadata on a mutated image re-wrapped in a valid
// envelope (so only semantic validation can catch it), and Restore
// onto a cache mid-run, whose own state must come through untouched.
func TestCorruptStateRejected(t *testing.T) {
	cfg := checkpointTestConfig()
	src := New(cfg)
	var clk sim.Clock
	src.AttachClock(&clk)
	driveCache(t, src, &clk, workload.MustNew("WebSearch1", 1.0/64, 3), 6000)
	var img, ckBytes bytes.Buffer
	if err := src.SaveMetadata(&img); err != nil {
		t.Fatal(err)
	}
	ck, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := envelope.Write(&ckBytes, "TEST", 1, ck); err != nil {
		t.Fatal(err)
	}

	recv := New(cfg)
	var clkRecv sim.Clock
	recv.AttachClock(&clkRecv)
	driveCache(t, recv, &clkRecv, workload.MustNew("WebSearch1", 1.0/64, 5), 3000)
	state := func() []byte {
		ck, err := recv.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := envelope.Write(&buf, "TEST", 1, ck); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := state()

	for name, mutate := range corruptions {
		t.Run(name, func(t *testing.T) {
			var image CacheCheckpoint
			if err := envelope.Read(bytes.NewReader(img.Bytes()), persistMagic, persistVersion, &image); err != nil {
				t.Fatal(err)
			}
			mutate(t, &image)
			var buf bytes.Buffer
			if err := envelope.Write(&buf, persistMagic, persistVersion, &image); err != nil {
				t.Fatal(err)
			}
			c, err := LoadMetadata(cfg, &buf)
			if err == nil || c != nil {
				t.Fatal("LoadMetadata accepted the image")
			}
			if !errors.Is(err, ErrCorruptMetadata) {
				t.Fatalf("LoadMetadata error %v not tagged ErrCorruptMetadata", err)
			}

			var full CacheCheckpoint
			if err := envelope.Read(bytes.NewReader(ckBytes.Bytes()), "TEST", 1, &full); err != nil {
				t.Fatal(err)
			}
			mutate(t, &full)
			if err := recv.Restore(&full); err == nil {
				t.Fatal("Restore accepted the checkpoint")
			}
			if !bytes.Equal(state(), before) {
				t.Fatal("rejected Restore changed the receiver")
			}
		})
	}
}

// TestRecoverMetadataColdStart: a recovering Open loads a clean image
// warm, and turns a corrupt one into a usable cold cache plus report.
func TestRecoverMetadataColdStart(t *testing.T) {
	cfg, img := savedImage(t)

	// Clean image: loads warm, no report.
	c, rep, err := Open(cfg, bytes.NewReader(img), WithRecovery())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdStart || rep.Err != nil {
		t.Fatalf("clean image reported %+v", rep)
	}
	if c.ValidPages() == 0 {
		t.Fatal("warm load came back empty")
	}

	// Corrupt image: degraded path, usable cold cache.
	mut := append([]byte(nil), img...)
	mut[len(mut)/2] ^= 0x40
	c, rep, err = Open(cfg, bytes.NewReader(mut), WithRecovery())
	if err != nil {
		t.Fatalf("recovering open must not fail: %v", err)
	}
	if !rep.ColdStart {
		t.Fatal("corrupt image did not force a cold start")
	}
	if !errors.Is(rep.Err, ErrCorruptMetadata) {
		t.Fatalf("report error %v not tagged ErrCorruptMetadata", rep.Err)
	}
	if c == nil || c.ValidPages() != 0 {
		t.Fatal("cold start is not an empty cache")
	}
	// The cold cache must be fully operational.
	for lba := int64(0); lba < 500; lba++ {
		c.Insert(lba)
	}
	if c.ValidPages() == 0 {
		t.Fatal("cold-started cache cannot cache")
	}
	checkInvariants(t, c)
}

// TestLoadMetadataRefusesVersion2 pins the format break: an image in
// the retired FDCM v2 layout is refused as corrupt, and a recovering
// Open cold-starts from it.
func TestLoadMetadataRefusesVersion2(t *testing.T) {
	cfg, _ := savedImage(t)
	var v2 bytes.Buffer
	if err := envelope.Write(&v2, persistMagic, 2, struct{ Version int }{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMetadata(cfg, bytes.NewReader(v2.Bytes())); !errors.Is(err, ErrCorruptMetadata) {
		t.Fatalf("v2 image: want ErrCorruptMetadata, got %v", err)
	}
	c, rep, err := Open(cfg, bytes.NewReader(v2.Bytes()), WithRecovery())
	if err != nil || !rep.ColdStart || !errors.Is(rep.Err, ErrCorruptMetadata) || c.ValidPages() != 0 {
		t.Fatalf("v2 image under WithRecovery: err %v, report %+v", err, rep)
	}
}
