package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/workload"
)

func init() { register("fig4", fig4) }

// fig4 reproduces Figure 4: Flash miss rate for a unified versus a
// split read/write disk cache, executing the dbt2 (OLTP) trace across
// Flash sizes of 128MB to 640MB (scaled).
func fig4(o Options) *Table {
	t := &Table{
		ID:    "fig4",
		Title: "Flash miss rate, unified vs split read/write disk cache (dbt2)",
		Note: fmt.Sprintf("synthetic dbt2 at %.4g scale; split = 90%% read / 10%% write regions",
			o.Scale),
		Header: []string{"flash_size", "unified_miss", "split_miss", "improvement_pp"},
	}
	sizes := []int64{128 << 20, 256 << 20, 384 << 20, 512 << 20, 640 << 20}
	requests := o.budget(150000)
	for _, size := range sizes {
		unified := fig4Run(o, size, false, requests)
		split := fig4Run(o, size, true, requests)
		t.AddRow(fmt.Sprintf("%dMB", size>>20),
			unified, split, (unified-split)*100)
	}
	return t
}

// fig4Run measures steady-state Flash read miss rate for one
// configuration.
func fig4Run(o Options, flashBytes int64, split bool, requests int) float64 {
	cfg := core.DefaultConfig(int64(float64(flashBytes) * o.Scale))
	cfg.Split = split
	cfg.Programmable = false // isolate the organisation effect
	cfg.Seed = o.Seed
	c := core.New(cfg)
	g := workload.MustNew("dbt2", o.Scale, o.Seed+3)
	miss, _ := missRun(c, g, requests, requests/2)
	return miss
}
