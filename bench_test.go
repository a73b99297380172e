package flashdc

// Profiling entry points. BenchmarkCache* and BenchmarkHierarchyRequest
// time the hot paths of the cache and the hierarchy,
// BenchmarkEngineReplay times a pre-encoded replay through the sharded
// engine, and BenchmarkWorkloadNext times trace generation alone. The
// throughput gate is perfbench (see BENCHMARK.json); the allocation
// gate is alloc_test.go.

import (
	"fmt"
	"runtime"
	"testing"

	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

// BenchmarkCacheReadHit times the cache hit path (FCHT lookup, device
// read, ECC latency accounting, LRU update).
func BenchmarkCacheReadHit(b *testing.B) {
	c := NewCache(DefaultCacheConfig(16 << 20))
	for i := int64(0); i < 1000; i++ {
		c.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Read(int64(i % 1000)).Hit {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkCacheWrite times the out-of-place write path including
// background GC amortised over a churning working set.
func BenchmarkCacheWrite(b *testing.B) {
	c := NewCache(DefaultCacheConfig(16 << 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(int64(i % 4000))
	}
}

// BenchmarkCacheMixed times a 70/30 read/write mix over a working set
// twice the cache size (steady-state miss handling included).
func BenchmarkCacheMixed(b *testing.B) {
	c := NewCache(DefaultCacheConfig(16 << 20))
	rng := sim.NewRNG(1)
	wss := 2 * int(c.CapacityPages())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := int64(rng.Intn(wss))
		if rng.Bool(0.3) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
}

// BenchmarkHierarchyRequest times a full request through DRAM, Flash
// and disk models with a dbt2-like access stream.
func BenchmarkHierarchyRequest(b *testing.B) {
	s := NewSystem(SystemConfig{DRAMBytes: 1 << 20, FlashBytes: 16 << 20, Seed: 1})
	g, err := NewWorkload("dbt2", 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Handle(g.Next())
	}
}

// BenchmarkEngineReplay times a 200k-request Zipf replay through the
// sharded engine at 1/4/8 shards (one worker per shard): the stream is
// generated and packed once outside the timed loop, then each
// iteration maps it zero-copy and replays it with Engine.RunSource.
// A row whose worker count exceeds GOMAXPROCS is skipped, since an
// oversubscribed run measures the host's scheduler, not the engine.
func BenchmarkEngineReplay(b *testing.B) {
	const requests = 200000
	g, err := NewWorkload("alpha2", 1.0/16, 3)
	if err != nil {
		b.Fatal(err)
	}
	buf := trace.AppendBinaryHeader(nil)
	for i := 0; i < requests; i++ {
		buf = trace.AppendBinary(buf, g.Next())
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			if procs := runtime.GOMAXPROCS(0); shards > procs {
				b.Skipf("%d shard workers exceed GOMAXPROCS=%d", shards, procs)
			}
			for i := 0; i < b.N; i++ {
				eng, err := NewEngine(EngineConfig{
					Shards: shards,
					Hier:   SystemConfig{DRAMBytes: 8 << 20, FlashBytes: 64 << 20, Seed: 3},
				})
				if err != nil {
					b.Fatal(err)
				}
				src, err := trace.MapBytes(buf)
				if err != nil {
					b.Fatal(err)
				}
				if n := eng.RunSource(src, requests); n != requests {
					b.Fatalf("replayed %d requests, want %d", n, requests)
				}
				if got := eng.Stats().Requests; got != requests {
					b.Fatalf("stats count %d requests, want %d", got, requests)
				}
			}
			b.ReportMetric(float64(requests)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkWorkloadNext times trace generation alone.
func BenchmarkWorkloadNext(b *testing.B) {
	for _, name := range []string{"uniform", "alpha2", "exp1", "dbt2"} {
		b.Run(name, func(b *testing.B) {
			g, err := NewWorkload(name, 0.01, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
	}
}
