package core

import (
	"bytes"
	"fmt"
	"testing"

	"flashdc/internal/fault"
	"flashdc/internal/policy"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// goldenMetadataDrive runs ops mixed host operations over a 6000-page
// footprint (larger than the 8MB cache, so fills evict and writes
// collect), advancing the clock 100µs per operation.
func goldenMetadataDrive(c *Cache, clk *sim.Clock, rng *sim.RNG, ops int) {
	for i := 0; i < ops && !c.Dead(); i++ {
		clk.Advance(100 * sim.Microsecond)
		lba := int64(rng.Intn(6000))
		if rng.Bool(0.3) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
}

// TestGoldenMetadataLoad pins what a cache reloaded from its metadata
// image goes on to do. Each configuration runs 20k operations, saves
// its metadata, comes back through Open (a restart: no clock, a fresh
// scheduler), attaches a clock continuing from the saved run's time
// and runs 20k more. The literals were recorded from the erase/program
// replay loader this format replaced, so they pin the power-cycle
// semantics of a load: which state survives a restart and which a
// restart loses.
func TestGoldenMetadataLoad(t *testing.T) {
	base := func(mod func(*Config)) Config {
		cfg := DefaultConfig(8 * testMB)
		cfg.Seed = 101
		mod(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", base(func(*Config) {}), `stats {Reads:13966 Writes:6034 Hits:8424 Misses:5542 Fills:5542 GCRuns:149 GCRelocations:16066 GCTime:12.21988s Evictions:66 FlushedPages:5546 WearSwaps:0 Promotions:0 Uncorrectable:0 UncorrectableInjected:0 RetiredBlocks:0 ReadRetries:0 RetryRecoveries:0 TransientFlips:0 ProgramFailures:0 EraseFailures:0 Remaps:0 ScrubScans:0 ScrubMigrations:0 ScrubTime:0s RetentionScans:0 RefreshRewrites:0 DisturbResets:0 AdmitRejects:0 WriteArounds:0 GCDeferred:0 AdmitThrottleFlips:0 ScrubDeferred:0 ScrubWindows:0}
global {Hits:15511 Misses:12487 HitLatencyTotal:42h26m24.19527105s MissPenaltyTotal:52.4454s ECCReconfigs:0 DensityReconfigs:0}
device {Reads:24490 Programs:27642 Erases:215 ReadTime:1.2245s ProgramTime:18.79656s EraseTime:709.5ms}
valid 3734 erases 403`},
		{"unified-fixed", base(func(c *Config) { c.Split, c.Programmable = false, false }), `stats {Reads:13966 Writes:6034 Hits:7631 Misses:6335 Fills:6335 GCRuns:4 GCRelocations:254 GCTime:198.62ms Evictions:95 FlushedPages:0 WearSwaps:0 Promotions:0 Uncorrectable:0 UncorrectableInjected:0 RetiredBlocks:0 ReadRetries:0 RetryRecoveries:0 TransientFlips:0 ProgramFailures:0 EraseFailures:0 Remaps:0 ScrubScans:0 ScrubMigrations:0 ScrubTime:0s RetentionScans:0 RefreshRewrites:0 DisturbResets:0 AdmitRejects:0 WriteArounds:0 GCDeferred:0 AdmitThrottleFlips:0 ScrubDeferred:0 ScrubWindows:0}
global {Hits:14578 Misses:13420 HitLatencyTotal:15h30m40.7215679s MissPenaltyTotal:56.364s ECCReconfigs:0 DensityReconfigs:0}
device {Reads:7885 Programs:12623 Erases:99 ReadTime:394.25ms ProgramTime:8.58364s EraseTime:326.7ms}
valid 3317 erases 170`},
		{"faults-scrub", base(func(c *Config) {
			c.WearAcceleration = 500
			c.ScrubEvery = 256
			c.Faults = &fault.Plan{Seed: 7, ReadFlipRate: 0.01, ReadFlipMax: 3,
				ProgramFailRate: 0.0005, EraseFailRate: 0.0005, GrownBadRate: 0.1, FactoryBadBlocks: []int{3}}
		}), `stats {Reads:13966 Writes:6034 Hits:7629 Misses:6337 Fills:6337 GCRuns:142 GCRelocations:15533 GCTime:11.81381s Evictions:78 FlushedPages:5560 WearSwaps:0 Promotions:0 Uncorrectable:0 UncorrectableInjected:0 RetiredBlocks:3 ReadRetries:49 RetryRecoveries:49 TransientFlips:156 ProgramFailures:18 EraseFailures:0 Remaps:18 ScrubScans:9984 ScrubMigrations:145 ScrubTime:105.85ms RetentionScans:0 RefreshRewrites:0 DisturbResets:0 AdmitRejects:0 WriteArounds:0 GCDeferred:0 AdmitThrottleFlips:0 ScrubDeferred:0 ScrubWindows:0}
global {Hits:14255 Misses:13743 HitLatencyTotal:39h13m26.291326684s MissPenaltyTotal:57.7206s ECCReconfigs:331 DensityReconfigs:0}
device {Reads:23356 Programs:28067 Erases:220 ReadTime:1.1678s ProgramTime:19.08556s EraseTime:726ms}
valid 3302 erases 404`},
		{"retention-disturb", base(func(c *Config) {
			c.WearAcceleration = 500
			c.ScrubEvery = 256
			c.Retention = wear.RetentionParams{Accel: 1e8}
			c.Disturb = wear.DisturbParams{ReadsPerBit: 100}
			c.RefreshThreshold = 0.75
		}), `stats {Reads:13966 Writes:6034 Hits:8007 Misses:5959 Fills:5959 GCRuns:168 GCRelocations:17280 GCTime:13.1688s Evictions:67 FlushedPages:5485 WearSwaps:27 Promotions:0 Uncorrectable:425 UncorrectableInjected:0 RetiredBlocks:0 ReadRetries:0 RetryRecoveries:0 TransientFlips:0 ProgramFailures:0 EraseFailures:0 Remaps:0 ScrubScans:9984 ScrubMigrations:101 ScrubTime:681.82ms RetentionScans:78 RefreshRewrites:833 DisturbResets:260 AdmitRejects:0 WriteArounds:0 GCDeferred:0 AdmitThrottleFlips:0 ScrubDeferred:0 ScrubWindows:0}
global {Hits:14990 Misses:13008 HitLatencyTotal:44h44m18.470452322s MissPenaltyTotal:54.6336s ECCReconfigs:1385 DensityReconfigs:0}
device {Reads:26646 Programs:33503 Erases:262 ReadTime:1.3323s ProgramTime:22.78204s EraseTime:864.6ms}
valid 3685 erases 449`},
		{"wlfc", base(func(c *Config) { c.Policies = policy.Set{Admit: policy.AdmitWLFC} }), `stats {Reads:13966 Writes:6034 Hits:7114 Misses:6852 Fills:3622 GCRuns:131 GCRelocations:13777 GCTime:10.48951s Evictions:5 FlushedPages:0 WearSwaps:0 Promotions:0 Uncorrectable:0 UncorrectableInjected:0 RetiredBlocks:0 ReadRetries:0 RetryRecoveries:0 TransientFlips:0 ProgramFailures:0 EraseFailures:0 Remaps:0 ScrubScans:0 ScrubMigrations:0 ScrubTime:0s RetentionScans:0 RefreshRewrites:0 DisturbResets:0 AdmitRejects:3230 WriteArounds:6034 GCDeferred:0 AdmitThrottleFlips:0 ScrubDeferred:0 ScrubWindows:0}
global {Hits:10907 Misses:17091 HitLatencyTotal:18h42m39.04908885s MissPenaltyTotal:1m11.7822s ECCReconfigs:0 DensityReconfigs:0}
device {Reads:20891 Programs:17399 Erases:136 ReadTime:1.04455s ProgramTime:11.83132s EraseTime:448.8ms}
valid 3189 erases 265`},
		{"sched-8x4-wbuf", base(func(c *Config) {
			c.Sched = sched.Config{Channels: 8, Banks: 4, WriteBufPages: 16}
		}), `stats {Reads:13966 Writes:6034 Hits:8424 Misses:5542 Fills:5542 GCRuns:149 GCRelocations:16066 GCTime:12.21988s Evictions:66 FlushedPages:5546 WearSwaps:0 Promotions:0 Uncorrectable:0 UncorrectableInjected:0 RetiredBlocks:0 ReadRetries:0 RetryRecoveries:0 TransientFlips:0 ProgramFailures:0 EraseFailures:0 Remaps:0 ScrubScans:0 ScrubMigrations:0 ScrubTime:0s RetentionScans:0 RefreshRewrites:0 DisturbResets:0 AdmitRejects:0 WriteArounds:0 GCDeferred:0 AdmitThrottleFlips:0 ScrubDeferred:0 ScrubWindows:0}
global {Hits:15511 Misses:12487 HitLatencyTotal:1h33m3.04449105s MissPenaltyTotal:52.4454s ECCReconfigs:0 DensityReconfigs:0}
device {Reads:24490 Programs:27642 Erases:215 ReadTime:1.2245s ProgramTime:18.79656s EraseTime:709.5ms}
valid 3734 erases 403`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewRNG(103)
			c := New(tc.cfg)
			var clk sim.Clock
			c.AttachClock(&clk)
			goldenMetadataDrive(c, &clk, rng, 20000)
			var img bytes.Buffer
			if err := c.SaveMetadata(&img); err != nil {
				t.Fatal(err)
			}
			loaded, _, err := Open(tc.cfg, &img)
			if err != nil {
				t.Fatal(err)
			}
			var clk2 sim.Clock
			clk2.AdvanceTo(clk.Now())
			loaded.AttachClock(&clk2)
			goldenMetadataDrive(loaded, &clk2, rng, 20000)
			if err := loaded.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			erases := 0
			for b := 0; b < loaded.Blocks(); b++ {
				erases += loaded.EraseCount(b)
			}
			got := fmt.Sprintf("stats %+v\nglobal %+v\ndevice %+v\nvalid %d erases %d",
				loaded.Stats(), loaded.Global(), loaded.DeviceStats(), loaded.ValidPages(), erases)
			if got != tc.want {
				t.Errorf("got\n%s\nwant\n%s", got, tc.want)
			}
		})
	}
}
