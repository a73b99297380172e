package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

func init() { register("fig12", fig12) }

// fig12Workloads is the benchmark set of Figure 12.
var fig12Workloads = []string{
	"uniform", "alpha1", "alpha2", "alpha3", "exp1",
	"WebSearch1", "WebSearch2", "Financial1", "Financial2",
}

// fig12 reproduces Figure 12: the expected lifetime — host accesses
// until total Flash failure, when no block can store data any more —
// of the programmable Flash memory controller versus a fixed BCH-1
// controller, normalized to the longest observed lifetime. The
// paper's headline: the programmable controller extends lifetime by a
// factor of ~20 on average.
func fig12(o Options) *Table {
	t := &Table{
		ID:    "fig12",
		Title: "Normalized lifetime: programmable controller vs BCH-1 controller",
		Note: fmt.Sprintf("Flash = working set / 2 at %.4g scale, wear acceleration compresses cycles; lifetime in host page accesses until total failure",
			o.Scale),
		Header: []string{"workload", "programmable", "bch1", "norm_programmable", "norm_bch1", "lifetime_gain"},
	}
	budget := o.budget(8_000_000)
	var rows []lifetimeRow
	for _, name := range fig12Workloads {
		rows = append(rows, lifetimeRow{name: name,
			prog: fig12Lifetime(o, name, true, budget),
			base: fig12Lifetime(o, name, false, budget)})
	}
	addLifetimeRows(t, rows)
	return t
}

// lifetimeRow is one workload of a lifetime figure: the programmable
// and BCH-1 controllers' lifetimes, plus cells that follow the gain.
type lifetimeRow struct {
	name       string
	prog, base int64
	extra      []any
}

// addLifetimeRows appends rows to t with both lifetimes normalized to
// the longest observed and the programmable controller's gain.
func addLifetimeRows(t *Table, rows []lifetimeRow) {
	var maxLife int64 = 1
	for _, r := range rows {
		maxLife = max(maxLife, r.prog, r.base)
	}
	for _, r := range rows {
		cells := []any{r.name, r.prog, r.base,
			float64(r.prog) / float64(maxLife),
			float64(r.base) / float64(maxLife),
			float64(r.prog) / float64(r.base)}
		t.AddRow(append(cells, r.extra...)...)
	}
}

// fig12Lifetime runs one workload against one controller until total
// Flash failure and returns the number of host page accesses
// absorbed. The budget caps runaway runs (reported as the budget).
func fig12Lifetime(o Options, name string, programmable bool, budget int) int64 {
	g := workload.MustNew(name, o.Scale, o.Seed+17)
	flashBytes := g.FootprintPages() * 2048 / 2
	cfg := core.DefaultConfig(flashBytes)
	cfg.Programmable = programmable
	cfg.Seed = o.Seed
	// Aggressive acceleration keeps time-to-total-failure inside the
	// budget; identical for both controllers so the ratio is
	// preserved.
	cfg.WearAcceleration = 20000
	c := core.New(cfg)
	return runToDeath(c, g, budget, func(r trace.Request) { serveFlash(c, r, nil) })
}
