package core

import (
	"bytes"
	"testing"

	"flashdc/internal/envelope"
	"flashdc/internal/sim"
)

// FuzzLoadMetadata asserts the recovery contract over arbitrary bytes:
// LoadMetadata never panics, and when it does accept an input, the
// resulting cache passes the full integrity audit (every mapping in
// range and consistent) and keeps serving requests — i.e. corruption
// is either rejected or impossible, never silent. The audit alone
// would miss state that is consistent but out of range, such as a
// scrub cursor past the block, which only the next operations trip
// over. The config is the 4-block minimum so each execution is cheap.
func FuzzLoadMetadata(f *testing.F) {
	cfg := DefaultConfig(testMB)
	cfg.Seed = 97
	cfg.ScrubEvery = 16
	c := New(cfg)
	for lba := int64(0); lba < 300; lba++ {
		c.Insert(lba)
		if lba%3 == 0 {
			c.Write(1000 + lba)
		}
	}
	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:envelope.HeaderSize])
	f.Add([]byte(persistMagic))
	f.Add([]byte{})
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadMetadata(cfg, bytes.NewReader(data))
		if err != nil {
			if got != nil {
				t.Fatal("error return carried a cache")
			}
			return
		}
		if got == nil {
			t.Fatal("nil cache without error")
		}
		if ierr := got.CheckIntegrity(); ierr != nil {
			t.Fatalf("accepted image built an inconsistent cache: %v", ierr)
		}
		replayMixed(got, sim.NewRNG(99), 500)
	})
}

// replayMixed runs n host operations over a footprint a few times the
// cache's page count: 30% writes, and reads that fill on a miss.
func replayMixed(c *Cache, rng *sim.RNG, n int) {
	footprint := int(c.CapacityPages())*3 + 1
	for i := 0; i < n && !c.Dead(); i++ {
		lba := int64(rng.Intn(footprint))
		if rng.Bool(0.3) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
}
