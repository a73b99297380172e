package core

import (
	"bytes"
	"testing"

	"flashdc/internal/sim"
)

func TestSaveLoadMetadataRoundTrip(t *testing.T) {
	cfg := DefaultConfig(8 * testMB)
	cfg.Seed = 71
	c := New(cfg)

	// Build up non-trivial state: fills, writes, promotions, GC.
	rng := sim.NewRNG(73)
	for i := 0; i < 30000; i++ {
		lba := int64(rng.Intn(5000))
		if rng.Bool(0.3) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	checkInvariants(t, c)

	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadMetadata(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, restored)

	if restored.ValidPages() != c.ValidPages() {
		t.Fatalf("valid pages %d != %d", restored.ValidPages(), c.ValidPages())
	}
	// Global statistics carried over (check before the verification
	// reads below mutate them).
	if restored.Global().Hits != c.Global().Hits {
		t.Fatal("FGST lost")
	}
	// Every cached page must still hit, with matching descriptors.
	hits := 0
	for lba := int64(0); lba < 5000; lba++ {
		origDesc, origOK := c.DescriptorFor(lba)
		newDesc, newOK := restored.DescriptorFor(lba)
		if origOK != newOK {
			t.Fatalf("lba %d presence diverged", lba)
		}
		if !origOK {
			continue
		}
		hits++
		if origDesc != newDesc {
			t.Fatalf("lba %d descriptor %v != %v", lba, newDesc, origDesc)
		}
		if !restored.Read(lba).Hit {
			t.Fatalf("lba %d misses after restore", lba)
		}
	}
	if hits == 0 {
		t.Fatal("no cached pages to verify")
	}
	// Erase counts (wear) must match.
	for b := 0; b < c.Blocks(); b++ {
		if restored.EraseCount(b) != c.EraseCount(b) {
			t.Fatalf("block %d erase count %d != %d", b, restored.EraseCount(b), c.EraseCount(b))
		}
	}
}

func TestRestoredCacheKeepsWorking(t *testing.T) {
	cfg := DefaultConfig(8 * testMB)
	cfg.Seed = 75
	c := New(cfg)
	for i := int64(0); i < 2000; i++ {
		c.Insert(i)
		if i%3 == 0 {
			c.Write(10000 + i)
		}
	}
	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadMetadata(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the restored cache hard enough to force allocation, GC
	// and eviction on the loaded allocator state.
	rng := sim.NewRNG(77)
	for i := 0; i < 40000; i++ {
		lba := int64(rng.Intn(20000))
		if rng.Bool(0.4) {
			restored.Write(lba)
		} else if !restored.Read(lba).Hit {
			restored.Insert(lba)
		}
	}
	checkInvariants(t, restored)
}

func TestLoadMetadataValidation(t *testing.T) {
	cfg := DefaultConfig(8 * testMB)
	cfg.Seed = 79
	c := New(cfg)
	c.Insert(1)
	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	// Mismatched capacity must be rejected.
	other := DefaultConfig(16 * testMB)
	other.Seed = 79
	if _, err := LoadMetadata(other, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
	// Garbage input must error, not panic.
	if _, err := LoadMetadata(cfg, bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("garbage metadata accepted")
	}
}
