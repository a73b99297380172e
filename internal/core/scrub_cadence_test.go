package core

import "testing"

// The scrub cadence test pins the operation-count trigger, the
// scrubber's only schedule. ScrubBatch is 1 so Stats().ScrubScans
// counts scrub increments exactly.

// scrubSteps drives n host operations (each a maybeScrub opportunity:
// a read hit, or an insert after a miss) and returns how many scrub
// increments ran during them.
func scrubSteps(c *Cache, n int) int64 {
	before := c.Stats().ScrubScans
	for i := 0; i < n; i++ {
		lba := int64(i % 64)
		if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	return c.Stats().ScrubScans - before
}

// Operation-count trigger alone: one increment every ScrubEvery ops.
func TestScrubCadenceOpCount(t *testing.T) {
	c := smallCache(t, func(cfg *Config) {
		cfg.ScrubEvery = 100
		cfg.ScrubBatch = 1
	})
	if got := scrubSteps(c, 1000); got != 10 {
		t.Fatalf("1000 ops at ScrubEvery=100 ran %d increments, want 10", got)
	}
}
