package nand

import (
	"testing"

	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// recountPages derives block b's page count from its slot modes the
// slow way, through the public Mode surface.
func recountPages(d *Device, b int) int {
	n := 0
	for s := 0; s < SlotsPerBlock; s++ {
		if d.Mode(Addr{Block: b, Slot: s}) == wear.MLC {
			n += 2
		} else {
			n++
		}
	}
	return n
}

// checkCounts asserts the cached per-block and live page counts against
// a recount.
func checkCounts(t *testing.T, d *Device, step int) {
	t.Helper()
	if err := d.CheckCounts(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	var live int64
	for b := 0; b < d.Blocks(); b++ {
		n := recountPages(d, b)
		if got := d.PagesPerBlock(b); got != n {
			t.Fatalf("step %d: PagesPerBlock(%d) = %d, slot modes give %d", step, b, got, n)
		}
		if !d.Retired(b) {
			live += int64(n)
		}
	}
	if got := d.CapacityBytes(); got != live*PageSize {
		t.Fatalf("step %d: CapacityBytes = %d, recount gives %d", step, got, live*PageSize)
	}
}

// TestCachedPageCountsProperty drives a device through random
// sequences of SetMode, Program, Erase, Retire and Checkpoint/Restore
// and checks after every step that the cached page counts equal a
// recount, and that Erase still charges the dominant mode's latency
// (MLC as soon as one slot is MLC).
func TestCachedPageCountsProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		const blocks = 6
		initial := wear.Mode(rng.Intn(2))
		d := New(Config{Blocks: blocks, InitialMode: initial, Seed: seed, FactoryBadBlocks: []int{rng.Intn(blocks), 2, 2}})
		checkCounts(t, d, -1)
		for step := 0; step < 400; step++ {
			b := rng.Intn(blocks)
			s := rng.Intn(SlotsPerBlock)
			switch op := rng.Intn(10); {
			case op < 4:
				// Illegal on a programmed slot; the counts must not
				// move either way.
				_ = d.SetMode(b, s, wear.Mode(rng.Intn(2)))
			case op < 7:
				_, _ = d.Program(Addr{Block: b, Slot: s, Sub: rng.Intn(2)}, uint64(step))
			case op < 8:
				want := d.cfg.Timing.Erase(wear.SLC)
				if recountPages(d, b) > SlotsPerBlock {
					want = d.cfg.Timing.Erase(wear.MLC)
				}
				if lat, err := d.Erase(b); err == nil && lat != want {
					t.Fatalf("seed %d step %d: Erase(%d) took %v, dominant mode gives %v", seed, step, b, lat, want)
				}
			case op < 9:
				d.Retire(b)
			default:
				ck, err := d.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				fresh := New(Config{Blocks: blocks, InitialMode: initial, Seed: seed})
				if err := fresh.Restore(ck); err != nil {
					t.Fatal(err)
				}
				d = fresh
			}
			checkCounts(t, d, step)
		}
	}
}
