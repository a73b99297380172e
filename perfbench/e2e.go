package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"flashdc/internal/core"
	"flashdc/internal/engine"
	"flashdc/internal/hier"
	"flashdc/internal/nand"
	"flashdc/internal/obs"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

// simulator is the driving and reporting surface the benchmark uses,
// satisfied by hier.System and engine.Engine alike.
type simulator interface {
	hier.Simulator
	Drain()
	Err() error
	CheckIntegrity() error
	Latencies() *sim.Histogram
	FlashStats() core.Stats
	DeviceStats() nand.Stats
	SchedStats() sched.Stats
}

var (
	_ simulator = (*hier.System)(nil)
	_ simulator = (*engine.Engine)(nil)
)

// generate draws the workload's request stream from seed and encodes
// it in the FDCT binary format. Generation and encoding alternate in
// traceBatch slices, each recorded as a span under parent when tr is
// non-nil (the untraced path passes nil).
func generate(s spec, seed uint64, tr *tracer, parent int) ([]byte, error) {
	id := tr.begin("workload.new", parent, -1)
	g, err := workload.New(s.gen, s.scale, seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	buf := trace.AppendBinaryHeader(make([]byte, 0, 8+16*s.requests))
	var reqs [traceBatch]trace.Request
	for done, b := 0, 0; done < s.requests; b++ {
		k := min(traceBatch, s.requests-done)
		id := tr.begin("workload.gen", parent, b)
		for i := range reqs[:k] {
			reqs[i] = g.Next()
		}
		tr.end(id)
		id = tr.begin("trace.encode", parent, b)
		for _, r := range reqs[:k] {
			buf = trace.AppendBinary(buf, r)
		}
		tr.end(id)
		done += k
	}
	return buf, nil
}

// build constructs the workload's simulator with observability as
// given (the obs-off comparison replay passes the zero value).
func build(s spec, seed uint64, o obs.Options) (simulator, error) {
	if s.sharded() {
		return engine.New(engine.Config{Shards: s.shards, Workers: s.workers, Hier: s.hierConfig(seed), Obs: o})
	}
	cfg := s.hierConfig(seed)
	if o != (obs.Options{}) {
		cfg.Observer = obs.New(o)
	}
	return hier.New(cfg), nil
}

// outputs is what one replay produced: the simulated (model) results
// and the counters the determinism and equivalence checks compare.
type outputs struct {
	Stats  hier.Stats
	Flash  core.Stats
	Device nand.Stats
	Sched  sched.Stats
	// Latencies digests the page-latency histogram (every bucket, the
	// count and the sum).
	Latencies [32]byte
	// ObsSnapshots, ObsEvents, ObsDropped and ObsBytes describe the
	// observability output (zero with observability off).
	ObsSnapshots, ObsEvents, ObsDropped, ObsBytes int64
	// Checkpoint is the SHA-256 of the checkpoint file (campaign only).
	Checkpoint [32]byte
	// P999 is the interpolated 99.9th percentile page latency.
	P999 float64
}

// simMetrics are the simulated end-to-end metrics: pure functions of
// the model's counters, identical for identical seeds.
func (o outputs) simMetrics() []metric {
	st := o.Stats
	pages := float64(st.ReadPages + st.WritePages)
	perM := 1e6 / float64(st.Requests)
	return []metric{
		{"sim_mean_latency_us", float64(st.TotalLatency) / pages / 1e3, "us"},
		{"sim_latency_p999_us", o.P999 / 1e3, "us"},
		{"sim_flash_hit_rate", float64(st.FlashHits) / float64(st.FlashHits+st.DiskReads), "ratio"},
		{"sim_programs_per_mreq", float64(o.Device.Programs) * perM, "count"},
		{"sim_erases_per_mreq", float64(o.Device.Erases) * perM, "count"},
	}
}

// collect reads a finished simulator's outputs.
func collect(sys simulator, rep *obs.Report, obsBytes int64, ck []byte) outputs {
	o := outputs{
		Stats:  sys.Stats(),
		Flash:  sys.FlashStats(),
		Device: sys.DeviceStats(),
		Sched:  sys.SchedStats(),
		P999:   quantile(sys.Latencies(), tailQuantile(int(sys.Latencies().Count()), 0.999)),
	}
	o.Latencies = histDigest(sys.Latencies())
	if rep != nil {
		o.ObsSnapshots = int64(len(rep.Snapshots))
		o.ObsEvents = int64(len(rep.Events))
		o.ObsDropped = rep.DroppedEvents
		o.ObsBytes = obsBytes
	}
	if ck != nil {
		o.Checkpoint = sha256.Sum256(ck)
	}
	return o
}

// repResult is one untraced end-to-end repetition.
type repResult struct {
	setup, replay, total time.Duration
	post
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// runRep performs one untraced repetition: set-up (generate, encode,
// map, construct), replay, and the end-of-run sequence.
func runRep(s spec, seed uint64) (repResult, error) {
	var r repResult
	t0 := time.Now()
	data, err := generate(s, seed, nil, -1)
	if err != nil {
		return r, err
	}
	src, err := trace.MapBytes(data)
	if err != nil {
		return r, err
	}
	sys, err := build(s, seed, s.obsOptions())
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0)
	if r.replay, r.post, err = replay(s, seed, sys, src); err != nil {
		return r, err
	}
	r.total = r.setup + r.replay + r.end
	return r, nil
}

// replay runs the whole stream through sys.RunSource untraced, then the
// end-of-run sequence, and returns the replay's host time.
func replay(s spec, seed uint64, sys simulator, src *trace.MapSource) (time.Duration, post, error) {
	t := time.Now()
	n := sys.RunSource(src, s.requests)
	d := time.Since(t)
	if err := trace.SourceErr(src); err != nil {
		return 0, post{}, err
	}
	if n != s.requests {
		return 0, post{}, fmt.Errorf("replayed %d of %d requests", n, s.requests)
	}
	p, err := finish(s, seed, sys, nil, -1)
	return d, p, err
}

// post is the end-of-run work after a replay and what it measured.
type post struct {
	out outputs
	// degraded records that the simulator reported degraded service
	// (Err) after the replay.
	degraded bool
	// end is the host time of the whole end-of-run sequence; drain,
	// observe, jsonl and ckpt its parts (recorded only when traced).
	end, drain, observe, jsonl, ckpt time.Duration
	// ck is the checkpoint file and ckStats/ckFlash the counters at
	// checkpoint time (campaign only), for the restore check.
	ck      []byte
	ckStats hier.Stats
	ckFlash core.Stats
}

// finish runs the end-of-run sequence (for the campaign Checkpoint and
// WriteCheckpoint; then Drain, Observe and for the campaign JSONL),
// recording spans when tr is non-nil, then checks the run and collects
// its outputs.
func finish(s spec, seed uint64, sys simulator, tr *tracer, parent int) (post, error) {
	p := post{degraded: sys.Err() != nil}
	start := time.Now()
	layer := "hier"
	if s.sharded() {
		layer = "engine"
	}
	if s.campaign {
		eng := sys.(*engine.Engine)
		p.ckStats, p.ckFlash = eng.Stats(), eng.FlashStats()
		id := tr.begin("engine.checkpoint", parent, -1)
		var err error
		p.ck, err = checkpointBytes(eng, s, seed)
		p.ckpt = tr.end(id)
		if err != nil {
			return p, err
		}
	}
	id := tr.begin(layer+".drain", parent, -1)
	sys.Drain()
	p.drain = tr.end(id)
	id = tr.begin(layer+".observe", parent, -1)
	rep := sys.Observe()
	p.observe = tr.end(id)
	cw := &countingWriter{}
	if s.campaign {
		id = tr.begin("obs.jsonl", parent, -1)
		err := writeJSONL(cw, rep)
		p.jsonl = tr.end(id)
		if err != nil {
			return p, err
		}
	}
	p.end = time.Since(start)
	if err := checkRun(sys, s); err != nil {
		return p, err
	}
	p.out = collect(sys, rep, cw.n, p.ck)
	return p, nil
}

// checkpointBytes snapshots the engine and serialises the checkpoint.
func checkpointBytes(eng *engine.Engine, s spec, seed uint64) ([]byte, error) {
	ck, err := eng.Checkpoint(fmt.Sprintf("perfbench workload=%s seed=%d", s.name, seed), int64(s.requests))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := engine.WriteCheckpoint(&buf, ck); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeJSONL writes the observability snapshots and events as JSONL.
func writeJSONL(w io.Writer, rep *obs.Report) error {
	if err := obs.WriteSnapshotsJSONL(w, rep.Snapshots); err != nil {
		return err
	}
	return obs.WriteEventsJSONL(w, rep.Events)
}

// checkRun is the per-replay correctness gate: every request counted,
// and the Flash mapping tables consistent with the device.
func checkRun(sys simulator, s spec) error {
	if got := sys.Stats().Requests; got != int64(s.requests) {
		return fmt.Errorf("Stats().Requests = %d, want %d", got, s.requests)
	}
	if err := sys.CheckIntegrity(); err != nil {
		return fmt.Errorf("integrity: %w", err)
	}
	return nil
}

// checkRestore is the campaign's checkpoint gate: the checkpoint file
// read back and restored into a fresh engine yields the same Stats,
// FlashStats and checkpoint bytes.
func checkRestore(s spec, seed uint64, r post) error {
	ck, err := engine.ReadCheckpoint(bytes.NewReader(r.ck))
	if err != nil {
		return err
	}
	sys, err := build(s, seed, s.obsOptions())
	if err != nil {
		return err
	}
	eng := sys.(*engine.Engine)
	if err := eng.Restore(ck); err != nil {
		return err
	}
	if eng.Stats() != r.ckStats {
		return fmt.Errorf("restored Stats %+v, want %+v", eng.Stats(), r.ckStats)
	}
	if eng.FlashStats() != r.ckFlash {
		return fmt.Errorf("restored FlashStats %+v, want %+v", eng.FlashStats(), r.ckFlash)
	}
	again, err := checkpointBytes(eng, s, seed)
	if err != nil {
		return err
	}
	if !bytes.Equal(again, r.ck) {
		return fmt.Errorf("restored checkpoint is %d bytes and differs from the %d-byte original", len(again), len(r.ck))
	}
	return nil
}

// e2eResult is the untraced run: medians over its repetitions.
type e2eResult struct {
	reps                        int
	attempted, failed           int
	setup, replayRate, total    float64
	setupIQR, rateIQR, totalIQR float64
	out                         outputs
}

// runE2E repeats runRep at least minReps times, and beyond that while
// another repetition as long as the last still fits in budget. It
// checks that every repetition produced identical outputs and returns
// the medians.
func runE2E(s spec, seed uint64, budget time.Duration, minReps int) (e2eResult, error) {
	var res e2eResult
	var setups, rates, totals []float64
	start := time.Now()
	var last time.Duration
	for rep := 0; rep < minReps || time.Since(start)+last <= budget; rep++ {
		t := time.Now()
		runtime.GC()
		r, err := runRep(s, seed)
		if err != nil {
			return res, fmt.Errorf("repetition %d: %w", rep, err)
		}
		if rep == 0 {
			res.out = r.out
			if s.campaign {
				if err := checkRestore(s, seed, r.post); err != nil {
					return res, fmt.Errorf("checkpoint restore: %w", err)
				}
			}
		} else if r.out != res.out {
			return res, fmt.Errorf("repetition %d outputs differ from repetition 0:\n  %+v\n  %+v", rep, r.out, res.out)
		}
		res.reps++
		res.attempted += s.requests
		if r.degraded {
			res.failed += s.requests
		}
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, float64(s.requests)/r.replay.Seconds())
		totals = append(totals, r.total.Seconds())
		last = time.Since(t)
	}
	res.setup, res.setupIQR = median(setups), relIQR(setups)
	res.replayRate, res.rateIQR = median(rates), relIQR(rates)
	res.total, res.totalIQR = median(totals), relIQR(totals)
	return res, nil
}

// isFinite guards metric values before they are printed as JSON.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
