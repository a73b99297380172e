package experiments

import (
	"fmt"

	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/workload"
)

func init() { register("fig7", fig7) }

// fig7 reproduces Figure 7: for the Financial2 and WebSearch1
// workloads, the average access latency achieved by the *optimal*
// SLC/MLC partition of a Flash die, as the die area grows toward the
// working set size. The study places the hottest pages in the SLC
// partition (what the saturating-counter promotion converges to) and
// sweeps the partition to find the latency minimum, exactly as the
// paper's static analysis does.
func fig7(o Options) *Table {
	t := &Table{
		ID:    "fig7",
		Title: "Optimal access latency and SLC/MLC partition vs Flash die area",
		Note: fmt.Sprintf("workload popularity measured over synthetic traces at %.4g scale; die model: 146mm^2 per GiB MLC",
			o.Scale),
		Header: []string{"workload", "die_area_mm2", "area_vs_wss_pct", "latency_us", "optimal_slc_pct"},
	}
	requests := o.budget(300000)
	for _, name := range []string{"Financial2", "WebSearch1"} {
		g := workload.MustNew(name, o.Scale, o.Seed+5)
		counts := workload.PopularityCounts(g, requests)
		total := 0
		for _, c := range counts {
			total += c
		}
		wssPages := float64(g.FootprintPages())
		area := nand.DefaultDieAreaModel()
		fullAreaMM2 := area.Area(0, wssPages*2048) // all-MLC area covering the WSS
		for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
			dieMM2 := fullAreaMM2 * frac
			lat, slcFrac := optimalPartition(area, dieMM2, counts, total)
			t.AddRow(name, dieMM2, frac*100, lat.Microseconds(), slcFrac*100)
		}
	}
	return t
}

// optimalPartition sweeps the SLC cell fraction and returns the
// minimum average access latency with its partition. Hits in the SLC
// partition cost an SLC read, MLC partition hits an MLC read, and
// pages beyond the die's capacity cost a disk access.
func optimalPartition(area nand.DieAreaModel, dieMM2 float64, counts []int, total int) (sim.Duration, float64) {
	tm := nand.DefaultTiming()
	const missLatency = 4200 * sim.Microsecond
	bestLat := sim.Duration(1 << 62)
	bestFrac := 0.0
	// base is the die's capacity if fully MLC; a cell fraction f in
	// SLC mode yields f*base/2 SLC bytes plus (1-f)*base MLC bytes.
	base := area.CapacityForArea(dieMM2, 0)
	for f := 0.0; f <= 1.0001; f += 0.02 {
		slcPages := int(f * base / 2 / 2048)
		mlcPages := int((1 - f) * base / 2048)
		var acc sim.Duration
		for i, c := range counts {
			var l sim.Duration
			switch {
			case i < slcPages:
				l = tm.ReadSLC
			case i < slcPages+mlcPages:
				l = tm.ReadMLC
			default:
				l = missLatency
			}
			acc += l.Scale(float64(c))
		}
		// Pages never accessed contribute nothing.
		avg := acc.Scale(1 / float64(total))
		if avg < bestLat {
			bestLat = avg
			bestFrac = f
		}
	}
	return bestLat, bestFrac
}
