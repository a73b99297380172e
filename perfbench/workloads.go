package main

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/engine"
	"flashdc/internal/fault"
	"flashdc/internal/hier"
	"flashdc/internal/obs"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

const mb = int64(1) << 20

// spec is one benchmark workload: a generated stream replayed closed
// loop through one simulator configuration. README.md records why each
// was chosen.
type spec struct {
	name     string
	gen      string  // workload.New catalog name
	scale    float64 // footprint scale passed to workload.New
	requests int     // requests per replay
	dram     int64
	flash    int64
	sched    sched.Config
	// shards > 1 drives the sharded engine with workers goroutines;
	// otherwise the workload drives one hier.System.
	shards, workers int
	// campaign adds faults, scrubbing, retention, read disturb,
	// observability and an end-of-run checkpoint.
	campaign bool
}

var specs = []spec{
	{
		name: "read-websearch", gen: "WebSearch1", scale: 1.0 / 16, requests: 1_000_000,
		dram: 16 * mb, flash: 128 * mb, shards: 1, workers: 1,
	},
	{
		name: "write-gc-alpha1", gen: "alpha1", scale: 1.0 / 4, requests: 1_000_000,
		dram: 8 * mb, flash: 64 * mb, shards: 1, workers: 1,
		sched: sched.Config{Channels: 8, Banks: 4, WriteBufPages: 16},
	},
	{
		name: "campaign-dbt2", gen: "dbt2", scale: 1.0 / 16, requests: 2_000_000,
		dram: 16 * mb, flash: 128 * mb, shards: 2, workers: 2, campaign: true,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// sharded reports whether the workload drives the sharded engine.
func (s spec) sharded() bool { return s.shards > 1 }

// hierConfig is the whole-system configuration; the engine divides the
// capacities across shards.
func (s spec) hierConfig(seed uint64) hier.Config {
	fc := core.DefaultConfig(s.flash)
	fc.Sched = s.sched
	if s.campaign {
		fc.Faults = &fault.Plan{
			Seed:            seed,
			ReadFlipRate:    2e-3,
			ProgramFailRate: 1e-3,
			EraseFailRate:   1e-3,
			GrownBadRate:    0.2,
		}
		fc.ScrubEvery = 512
		fc.Retention = wear.RetentionParams{Accel: 5e4}
		fc.Disturb = wear.DisturbParams{ReadsPerBit: 20000}
	}
	return hier.Config{DRAMBytes: s.dram, FlashBytes: s.flash, Flash: fc, Seed: seed}
}

// obsOptions is the observability the workload runs with; the zero
// value (observability off) outside the campaign.
func (s spec) obsOptions() obs.Options {
	if !s.campaign {
		return obs.Options{}
	}
	return obs.Options{Metrics: true, MetricsInterval: 10 * sim.Millisecond, Trace: true}
}

// shardConfig is the configuration the engine gives shard i, so a
// standalone replay of that shard's stream reproduces it: capacities
// divided evenly, the derived shard seed, and a per-shard observer
// built from o (none for the zero value).
func (s spec) shardConfig(seed uint64, i int, o obs.Options) hier.Config {
	h := s.hierConfig(seed)
	if s.sharded() {
		h.DRAMBytes /= int64(s.shards)
		h.FlashBytes /= int64(s.shards)
		h.Seed = engine.ShardSeed(seed, i)
	}
	if o != (obs.Options{}) {
		ob := obs.New(o)
		ob.SetShard(i)
		h.Observer = ob
	}
	return h
}
