package nand

import (
	"math"
	"testing"

	"flashdc/internal/wear"
)

// TestWearFreeBoundIsExact: below the device's wear-free bound every
// page's FailedBits is 0, so the shortcut in organicBits and
// WearBitErrors changes no result. It covers Figure 6(b)'s spatial
// spreads, both modes, real-time wear and the lifetime experiments'
// acceleration. Every slot is checked at the last erase count below
// the bound (FailedBits is monotone in cycles), the device's weakest
// slot at every erase count up to it, and the device surface on both
// sides of it.
func TestWearFreeBoundIsExact(t *testing.T) {
	const lifetimeAccel = 20000 // fig12, lifetime-latency, fig12-retention
	for _, sigma := range []float64{0, 0.05, 0.10, 0.20} {
		for _, accel := range []float64{1, lifetimeAccel} {
			for _, mode := range []wear.Mode{wear.SLC, wear.MLC} {
				d := New(Config{Blocks: 16, SigmaSpatial: sigma, InitialMode: mode, Seed: 11, WearAcceleration: accel})
				bound := d.wearFree[mode]
				if !(bound > 0) {
					t.Fatalf("sigma %.2f %v: wear-free bound %v", sigma, mode, bound)
				}
				// last is the largest erase count whose effective
				// cycles fall below the bound.
				last := int(bound / accel)
				for float64(last)*accel >= bound {
					last--
				}
				if float64(last+1)*accel < bound {
					t.Fatalf("sigma %.2f %v accel %v: erase count %d also lies below the bound %v", sigma, mode, accel, last+1, bound)
				}
				if accel == 1 {
					spec := float64(wear.EnduranceSLC)
					if mode == wear.MLC {
						spec = wear.EnduranceMLC
					}
					floor := spec / 10
					if sigma > 0.10 {
						floor = spec / 100
					}
					if bound < floor {
						t.Fatalf("sigma %.2f %v: wear-free bound %.0f cycles, want >= %.0f", sigma, mode, bound, floor)
					}
				}
				weakest := 0
				for i := range d.slots {
					w := &d.slots[i].wear
					if n := w.FailedBits(float64(last)*accel, mode); n != 0 {
						t.Fatalf("sigma %.2f %v accel %v: slot %d has %d failed bits at erase count %d, below the bound %v",
							sigma, mode, accel, i, n, last, bound)
					}
					if w.CyclesUntilBits(0, mode) < d.slots[weakest].wear.CyclesUntilBits(0, mode) {
						weakest = i
					}
				}
				for e := 0; e <= last; e++ {
					if n := d.slots[weakest].wear.FailedBits(float64(e)*accel, mode); n != 0 {
						t.Fatalf("sigma %.2f %v accel %v: weakest slot has %d failed bits at erase count %d", sigma, mode, accel, n, e)
					}
				}
				// The bound is within a factor 4 of the weakest slot's
				// first failure, and the device surface agrees with the
				// model on both sides of it.
				worn := int(math.Ceil(4 * bound / accel))
				if d.slots[weakest].wear.FailedBits(float64(worn)*accel, mode) == 0 {
					t.Fatalf("sigma %.2f %v accel %v: weakest slot still clean at 4x the bound", sigma, mode, accel)
				}
				b := weakest / SlotsPerBlock
				for _, e := range []int{last, last + 1, 2*last + 2, worn} {
					d.blocks[b].eraseCount = e
					for s := 0; s < SlotsPerBlock; s++ {
						a := Addr{Block: b, Slot: s}
						want := d.slots[b*SlotsPerBlock+s].wear.FailedBits(float64(e)*accel, mode)
						if got := d.WearBitErrors(a); got != want {
							t.Fatalf("sigma %.2f %v accel %v: WearBitErrors(%v) at erase count %d = %d, model gives %d",
								sigma, mode, accel, a, e, got, want)
						}
					}
				}
			}
		}
	}
}
