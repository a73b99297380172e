package experiments

import (
	"flashdc/internal/core"
	"flashdc/internal/hier"
	"flashdc/internal/server"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

// This file holds the decisions every experiment shares: how a bare
// Flash cache serves a page, how a hierarchy is warmed before it is
// measured, when a measured run is complete, and how a cache is run to
// total failure. Each is written once here and called from the
// per-figure files.

// budget is the per-configuration request budget: Requests, or def
// when Requests is 0.
func (o Options) budget(def int) int {
	if o.Requests == 0 {
		return def
	}
	return o.Requests
}

// access is the Flash-only access rule for one page: a write goes to
// Write; a read goes to Read, and a miss is filled with Insert. It
// returns the read outcome (zero for a write) and the page's latency:
// the write's, or the read's plus the fill's on a miss.
func access(c *core.Cache, write bool, lba int64) (core.ReadOutcome, sim.Duration) {
	if write {
		return core.ReadOutcome{}, c.Write(lba)
	}
	out := c.Read(lba)
	if out.Hit {
		return out, out.Latency
	}
	return out, out.Latency + c.Insert(lba)
}

// serveFlash applies access to every page of r in order, handing each
// read's outcome to onRead when it is non-nil.
func serveFlash(c *core.Cache, r trace.Request, onRead func(core.ReadOutcome)) {
	write := r.Op == trace.OpWrite
	r.Expand(func(lba int64) {
		out, _ := access(c, write, lba)
		if !write && onRead != nil {
			onRead(out)
		}
	})
}

// missRun replays n requests of g against c under the access rule and
// returns the read miss rate and the mean hit latency of the requests
// from index warm on.
func missRun(c *core.Cache, g workload.Generator, n, warm int) (float64, sim.Duration) {
	var reads, misses int64
	var hitLatency sim.Duration
	for i := 0; i < n; i++ {
		serveFlash(c, g.Next(), func(out core.ReadOutcome) {
			if i < warm {
				return
			}
			reads++
			if !out.Hit {
				misses++
			} else {
				hitLatency += out.Latency
			}
		})
	}
	miss := 0.0
	if reads > 0 {
		miss = float64(misses) / float64(reads)
	}
	avgHit := sim.Duration(0)
	if h := reads - misses; h > 0 {
		avgHit = sim.Duration(int64(hitLatency) / h)
	}
	return miss, avgHit
}

// runToDeath draws requests from g and hands each to step until c dies
// or budget requests have been drawn. It returns the host page accesses
// absorbed: every page of every drawn request, including the one during
// which the cache died.
func runToDeath(c *core.Cache, g workload.Generator, budget int, step func(trace.Request)) int64 {
	var accesses int64
	for i := 0; i < budget && !c.Dead(); i++ {
		r := g.Next()
		accesses += int64(max(r.Pages, 1))
		step(r)
	}
	return accesses
}

// warmMeasure replays warm requests of g through s to fill its caches
// (the Flash tier only fills on PDC misses, so it converges slowly),
// zeroes every counter, then replays the n requests that are measured.
func warmMeasure(s *hier.System, g workload.Generator, warm, n int) {
	src := workload.AsSource(g)
	s.RunSource(src, warm)
	s.ResetStats()
	s.RunSource(src, n)
}

// completionTime drains s and returns how long its measured phase took:
// as long as its slowest resource — the closed-loop server replaying
// the requests at their mean latency, the disk, or the Flash chip.
func completionTime(s *hier.System) sim.Duration {
	s.Drain()
	st := s.Stats()
	return max(server.Default().Elapsed(st.Requests, st.AvgLatency()), s.DiskBusy(), s.FlashBusy())
}
