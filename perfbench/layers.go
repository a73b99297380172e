package main

import (
	"fmt"
	"runtime"
	"time"

	"flashdc/internal/hier"
	"flashdc/internal/obs"
	"flashdc/internal/sched"
	"flashdc/internal/trace"
)

// layerPairs is how many rounds of untraced, traced and comparison
// replays the traced run makes; differences are medians over them.
const layerPairs = 4

// tracedSource records a span around every MapSource.Next call the
// engine's router makes.
type tracedSource struct {
	src    *trace.MapSource
	tr     *tracer
	parent int
	batch  int
}

func (t *tracedSource) Next(buf []trace.Request) int {
	id := t.tr.begin("trace.decode", t.parent, t.batch)
	n := t.src.Next(buf)
	t.tr.end(id)
	t.batch++
	return n
}

// timedReplay builds the simulator untraced and replays the whole
// stream through it (see replay).
func timedReplay(s spec, seed uint64, o obs.Options, src *trace.MapSource) (time.Duration, post, error) {
	sys, err := build(s, seed, o)
	if err != nil {
		return 0, post{}, err
	}
	src.Reset()
	runtime.GC()
	return replay(s, seed, sys, src)
}

// runLayers is the traced run: a traced set-up, rounds of traced and
// untraced replays, and the component replays that time each layer on
// its own. It returns the per-layer metrics and how many requests were
// served degraded.
func runLayers(s spec, seed uint64, tr *tracer) ([]metric, int, error) {
	n := float64(s.requests)
	overhead := timerOverhead()

	// Traced set-up.
	root := tr.begin("setup", -1, -1)
	data, err := generate(s, seed, tr, root)
	if err != nil {
		return nil, 0, err
	}
	id := tr.begin("trace.map", root, -1)
	src, err := trace.MapBytes(data)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	newName := "hier.new"
	if s.sharded() {
		newName = "engine.new"
	}
	id = tr.begin(newName, root, -1)
	sys, err := build(s, seed, s.obsOptions())
	newTime := tr.end(id)
	tr.end(root)
	if err != nil {
		return nil, 0, err
	}

	// Untraced, traced and (with the scheduler) serial-geometry
	// replays, alternated layerPairs times so that host drift hits every
	// side alike; each difference is the median over the rounds.
	var untraced, traced, serial []float64
	var posts []post
	var base outputs
	var degraded bool
	for r := 0; r < layerPairs; r++ {
		if r > 0 {
			if sys, err = build(s, seed, s.obsOptions()); err != nil {
				return nil, 0, err
			}
		}
		// Odd rounds trace first, so the order effect of a replay
		// following another cancels in the median.
		var dU, dT time.Duration
		var pU, pT post
		if r%2 == 1 {
			if dT, pT, err = tracedReplay(s, seed, sys, src, tr); err != nil {
				return nil, 0, err
			}
		}
		if dU, pU, err = timedReplay(s, seed, s.obsOptions(), src); err != nil {
			return nil, 0, err
		}
		if r%2 == 0 {
			if dT, pT, err = tracedReplay(s, seed, sys, src, tr); err != nil {
				return nil, 0, err
			}
		}
		if r == 0 {
			base, degraded = pU.out, pU.degraded
		}
		if pU.out != base || pT.out != base {
			return nil, 0, fmt.Errorf("round %d replay outputs differ:\n  untraced %+v\n  traced   %+v\n  first    %+v", r, pU.out, pT.out, base)
		}
		untraced = append(untraced, dU.Seconds())
		traced = append(traced, dT.Seconds())
		posts = append(posts, pT)

		if s.sched.Active() {
			flat := s
			flat.sched = sched.Config{}
			d, p, err := timedReplay(flat, seed, flat.obsOptions(), src)
			if err != nil {
				return nil, 0, err
			}
			st := p.out.Stats
			if st.PDCHits != base.Stats.PDCHits || st.FlashHits != base.Stats.FlashHits || st.DiskReads != base.Stats.DiskReads {
				return nil, 0, fmt.Errorf("serial geometry changed hit/miss semantics: %+v vs %+v", st, base.Stats)
			}
			serial = append(serial, d.Seconds())
		}
	}

	// Route: decode the stream and split it into per-shard streams
	// exactly as the engine's router does.
	src.Reset()
	all := make([]trace.Request, src.Len())
	all = all[:src.Next(all)]
	streams := [][]trace.Request{all}
	var route time.Duration
	if s.sharded() {
		streams = make([][]trace.Request, s.shards)
		id = tr.begin("engine.route", -1, -1)
		for _, r := range all {
			trace.SplitRuns(r, s.shards, func(sh int, run trace.Request) {
				streams[sh] = append(streams[sh], run)
			})
		}
		route = tr.end(id)
	}

	// Component replays, one shard at a time.
	comp := &compResult{}
	for i, stream := range streams {
		runtime.GC()
		id := tr.begin(fmt.Sprintf("components.shard%d", i), -1, -1)
		c, err := components(s.shardConfig(seed, i, obs.Options{}), stream, tr, id, overhead)
		tr.end(id)
		if err != nil {
			return nil, 0, err
		}
		comp.merge(c)
	}
	if err := comp.compare(base); err != nil {
		return nil, 0, err
	}

	// hier.RunBatch times: the traced replays' batches for one shard;
	// standalone replays of each shard's stream for the engine, which
	// also give the parallel efficiency. With observability on, each
	// standalone replay alternates with one without it.
	runbatch := tr.total("hier.runbatch") / layerPairs
	batchUS := tr.durations("hier.runbatch")
	parallelEff, imbalance, obsOverhead := 1.0, 1.0, 0.0
	if s.sharded() || s.obsOptions() != (obs.Options{}) {
		shardTimes := make([]float64, len(streams))
		var overheads []float64
		for r := 0; r < layerPairs; r++ {
			var on, off time.Duration
			var stOn, stOff hier.Stats
			for i, stream := range streams {
				t, st, err := standaloneShard(s, seed, i, stream, s.obsOptions(), tr, "shard.runbatch")
				if err != nil {
					return nil, 0, err
				}
				on += t
				stOn.Merge(st)
				shardTimes[i] += t.Seconds() / layerPairs
				if s.obsOptions() != (obs.Options{}) {
					t, st, err := standaloneShard(s, seed, i, stream, obs.Options{}, tr, "shard.runbatch.noobs")
					if err != nil {
						return nil, 0, err
					}
					off += t
					stOff.Merge(st)
				}
			}
			if stOn != base.Stats {
				return nil, 0, fmt.Errorf("standalone shard replays give %+v, the in-situ replay %+v", stOn, base.Stats)
			}
			if s.obsOptions() != (obs.Options{}) {
				if stOff != base.Stats {
					return nil, 0, fmt.Errorf("observability changed the replay: %+v vs %+v", stOff, base.Stats)
				}
				overheads = append(overheads, float64(on-off))
			}
		}
		if len(overheads) > 0 {
			obsOverhead = median(overheads) / n
		}
		if s.sharded() {
			runbatch = tr.total("shard.runbatch") / layerPairs
			batchUS = tr.durations("shard.runbatch")
			var sum, hi float64
			for _, t := range shardTimes {
				sum += t
				hi = max(hi, t)
			}
			parallelEff = sum / (float64(s.workers) * median(untraced))
			imbalance = hi / (sum / float64(len(shardTimes)))
		}
	}
	schedOverhead := 0.0
	if len(serial) > 0 {
		diffs := make([]float64, len(serial))
		for r := range serial {
			diffs[r] = (untraced[r] - serial[r]) * 1e9
		}
		schedOverhead = median(diffs) / n
	}
	ratios := make([]float64, layerPairs)
	for r := range ratios {
		ratios[r] = traced[r]/untraced[r] - 1
	}
	tp := medianPost(posts)

	pages := float64(comp.pages)
	cs, ds, ss := comp.coreStats, comp.device, comp.sched
	perOp := func(d time.Duration, k int64) float64 {
		if k == 0 {
			return 0
		}
		return float64(d) / float64(k)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	coreTime := comp.coreRead + comp.coreInsert + comp.coreWrite
	decode := tr.total("trace.decode") / layerPairs
	runbatchNS := float64(runbatch) / n
	compNS := float64(comp.dramTime+coreTime+comp.histTime) / n
	lead := float64(decode+route) / n
	compNS += obsOverhead
	batchP99 := tailQuantile(len(batchUS), 0.99)

	failed := 0
	if degraded {
		failed = s.requests
	}
	return []metric{
		{"workload.gen_ns_per_req", float64(tr.total("workload.new")+tr.total("workload.gen")) / n, "ns"},
		{"trace.encode_ns_per_req", float64(tr.total("trace.encode")) / n, "ns"},
		{"trace.decode_ns_per_req", float64(decode) / n, "ns"},
		{"engine.new_ms", ms(newTime), "ms"},
		{"engine.route_ns_per_req", float64(route) / n, "ns"},
		{"engine.parallel_eff", parallelEff, "ratio"},
		{"engine.shard_imbalance", imbalance, "ratio"},
		{"engine.observe_merge_ms", ms(tp.observe), "ms"},
		{"engine.checkpoint_ms", ms(tp.ckpt), "ms"},
		{"engine.checkpoint_bytes", float64(len(tp.ck)), "bytes"},
		{"hier.runbatch_ns_per_req", runbatchNS, "ns"},
		{"hier.self_ns_per_req", runbatchNS - compNS, "ns"},
		{"hier.batch_us_p50", sampleQuantile(batchUS, 0.5), "us"},
		{"hier.batch_us_p99", sampleQuantile(batchUS, batchP99), "us"},
		{"hier.batch_samples", float64(len(batchUS)), "count"},
		{"hier.drain_ms", ms(tp.drain), "ms"},
		{"dram.ns_per_op", float64(comp.dramTime) / pages, "ns"},
		{"dram.hit_ratio", ratio(comp.readHits, comp.reads), "ratio"},
		{"dram.dirty_evictions", float64(comp.dirtyEvictions), "count"},
		{"core.read_ns_per_op", perOp(comp.coreRead, comp.nCoreRead), "ns"},
		{"core.insert_ns_per_op", perOp(comp.coreInsert, comp.nCoreInsert), "ns"},
		{"core.write_ns_per_op", perOp(comp.coreWrite, comp.nCoreWrite), "ns"},
		{"core.hit_ratio", ratio(cs.Hits, cs.Hits+cs.Misses), "ratio"},
		{"core.evictions", float64(cs.Evictions), "count"},
		{"core.gc_runs", float64(cs.GCRuns), "count"},
		{"core.gc_reloc_per_erase", ratio(cs.GCRelocations, cs.GCRuns), "ratio"},
		{"core.gc_busy_sim_ms", ms(time.Duration(cs.GCTime)), "ms"},
		{"core.read_retries", float64(cs.ReadRetries), "count"},
		{"core.remaps", float64(cs.Remaps), "count"},
		{"core.scrub_scans", float64(cs.ScrubScans), "count"},
		{"nand.reads", float64(ds.Reads), "count"},
		{"nand.programs", float64(ds.Programs), "count"},
		{"nand.erases", float64(ds.Erases), "count"},
		{"nand.busy_sim_ms", ms(time.Duration(ds.BusyTime())), "ms"},
		{"sched.cmds", float64(ss.ReadCmds + ss.ProgramCmds + ss.EraseCmds), "count"},
		{"sched.chan_wait_sim_ms", ms(time.Duration(ss.ChanWaitTime)), "ms"},
		{"sched.bank_wait_sim_ms", ms(time.Duration(ss.BankWaitTime)), "ms"},
		{"sched.forced_flush_ratio", ratio(ss.ForcedFlushes, ss.Flushes), "ratio"},
		{"sched.coalesce_ratio", ratio(ss.CoalescedWrites, ss.BufferedWrites), "ratio"},
		{"sched.overhead_ns_per_req", schedOverhead, "ns"},
		{"disk.reads", float64(comp.disk.Reads), "count"},
		{"disk.writes", float64(comp.disk.Writes), "count"},
		{"disk.busy_sim_ms", ms(time.Duration(comp.disk.BusyTime)), "ms"},
		{"sim.hist_observe_ns", float64(comp.histTime) / pages, "ns"},
		{"obs.overhead_ns_per_req", obsOverhead, "ns"},
		{"obs.snapshots", float64(tp.out.ObsSnapshots), "count"},
		{"obs.events", float64(tp.out.ObsEvents), "count"},
		{"obs.dropped_events", float64(tp.out.ObsDropped), "count"},
		{"obs.write_ms", ms(tp.jsonl), "ms"},
		{"obs.bytes", float64(tp.out.ObsBytes), "bytes"},
		{"bench.trace_overhead_frac", median(ratios), "ratio"},
		{"bench.layer_coverage", (lead + compNS) / (lead + runbatchNS), "ratio"},
	}, failed, nil
}

// tracedReplay replays the whole stream on sys with a span around every
// decode and RunBatch call (for the engine, around its RunSource and
// every decode the router makes), runs the end-of-run sequence with
// spans, and returns the replay's host time.
func tracedReplay(s spec, seed uint64, sys simulator, src *trace.MapSource, tr *tracer) (time.Duration, post, error) {
	src.Reset()
	runtime.GC()
	root := tr.begin("replay", -1, -1)
	if s.sharded() {
		id := tr.begin("engine.runsource", root, -1)
		sys.RunSource(&tracedSource{src: src, tr: tr, parent: id}, s.requests)
		tr.end(id)
	} else {
		buf := make([]trace.Request, traceBatch)
		for b := 0; ; b++ {
			id := tr.begin("trace.decode", root, b)
			k := src.Next(buf)
			tr.end(id)
			if k == 0 {
				break
			}
			id = tr.begin("hier.runbatch", root, b)
			sys.RunBatch(buf[:k])
			tr.end(id)
		}
	}
	d := tr.end(root)
	if err := trace.SourceErr(src); err != nil {
		return 0, post{}, err
	}
	root = tr.begin("post", -1, -1)
	p, err := finish(s, seed, sys, tr, root)
	tr.end(root)
	return d, p, err
}

// medianPost is the per-field median of the end-of-run times; the
// outputs and byte counts are equal across posts by the checks.
func medianPost(posts []post) post {
	med := func(f func(post) time.Duration) time.Duration {
		xs := make([]float64, len(posts))
		for i, p := range posts {
			xs[i] = float64(f(p))
		}
		return time.Duration(median(xs))
	}
	p := posts[0]
	p.drain = med(func(p post) time.Duration { return p.drain })
	p.observe = med(func(p post) time.Duration { return p.observe })
	p.jsonl = med(func(p post) time.Duration { return p.jsonl })
	p.ckpt = med(func(p post) time.Duration { return p.ckpt })
	return p
}

// standaloneShard replays one shard's stream on a hier.System built
// with the configuration the engine gives that shard (observability as
// given), recording each RunBatch as a span called name, and returns the
// summed RunBatch time and the shard's counters.
func standaloneShard(s spec, seed uint64, i int, stream []trace.Request, o obs.Options, tr *tracer, name string) (time.Duration, hier.Stats, error) {
	runtime.GC()
	sys := hier.New(s.shardConfig(seed, i, o))
	parent := tr.begin(fmt.Sprintf("shard%d", i), -1, -1)
	var total time.Duration
	for b, off := 0, 0; off < len(stream); b++ {
		batch := stream[off:min(off+traceBatch, len(stream))]
		off += len(batch)
		id := tr.begin(name, parent, b)
		sys.RunBatch(batch)
		total += tr.end(id)
	}
	tr.end(parent)
	if err := sys.Err(); err != nil {
		return 0, hier.Stats{}, fmt.Errorf("shard %d: %w", i, err)
	}
	return total, sys.Stats(), nil
}
