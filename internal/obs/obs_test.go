package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"flashdc/internal/sim"
)

func TestRegistryCollectors(t *testing.T) {
	var r Registry
	r.RegisterCollector(func(s *Sample) {
		s.Counter("sampled_total", 7)
		s.Counter("shared_total", 3)
		s.Gauge("valid", 11)
		s.Histogram("lat", HistogramSnapshot{Bounds: []int64{10}, Buckets: []int64{1, 0}, Count: 1, Sum: 4})
	})
	r.RegisterCollector(func(s *Sample) {
		s.Counter("shared_total", 2) // folds into the first collector's series
		s.Histogram("lat", HistogramSnapshot{Bounds: []int64{10}, Buckets: []int64{0, 2}, Count: 2, Sum: 40})
	})
	s := r.Snapshot(4, 99, true)
	if s.Seq != 4 || s.T != 99 || !s.Final {
		t.Fatalf("identity fields: %+v", s)
	}
	if s.Counter("sampled_total") != 7 || s.Counter("shared_total") != 5 {
		t.Fatalf("counters: sampled=%d shared=%d", s.Counter("sampled_total"), s.Counter("shared_total"))
	}
	if s.Gauge("valid") != 11 {
		t.Fatalf("gauge valid = %v", s.Gauge("valid"))
	}
	if h, ok := s.Histogram("lat"); !ok || h.Count != 3 || h.Sum != 44 || h.Buckets[0] != 1 || h.Buckets[1] != 2 {
		t.Fatalf("histogram: %+v", h)
	}
	// The second snapshot writes by call position into the fixed schema.
	if s := r.Snapshot(5, 100, false); s.Counter("shared_total") != 5 || s.Counter("absent") != 0 {
		t.Fatalf("second snapshot: shared=%d", s.Counter("shared_total"))
	}
}

// TestSchemaDriftPanics: the series set is fixed by the first snapshot,
// so any later drift in the collectors' call sequence is a bug that
// must fail loudly rather than silently drop or misfile a series.
func TestSchemaDriftPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drift func(*Sample)
	}{
		{"renamed", func(s *Sample) { s.Counter("b", 1) }},
		{"rekinded", func(s *Sample) { s.Gauge("a", 1) }},
		{"extra", func(s *Sample) { s.Counter("a", 1); s.Counter("a", 1) }},
		{"missing", func(s *Sample) {}},
		{"rebounded", func(s *Sample) {
			s.Counter("a", 1)
			s.Histogram("h", HistogramSnapshot{Bounds: []int64{7}, Buckets: []int64{0, 0}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r Registry
			drifted := false
			r.RegisterCollector(func(s *Sample) {
				if drifted {
					tc.drift(s)
					return
				}
				s.Counter("a", 1)
				s.Histogram("h", HistogramSnapshot{Bounds: []int64{5}, Buckets: []int64{0, 0}})
			})
			r.Snapshot(0, 0, false)
			drifted = true
			defer func() {
				if recover() == nil {
					t.Fatal("schema drift did not panic")
				}
			}()
			r.Snapshot(1, 1, false)
		})
	}
	t.Run("late-register", func(t *testing.T) {
		var r Registry
		r.Snapshot(0, 0, false)
		defer func() {
			if recover() == nil {
				t.Fatal("RegisterCollector after the first snapshot did not panic")
			}
		}()
		r.RegisterCollector(func(*Sample) {})
	})
}

func TestTracerRingOverflow(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.record(Event{T: int64(i), Kind: KindGCStart, Block: i})
	}
	evs := tr.Events()
	if len(evs) != 3 || tr.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", len(evs), tr.Dropped())
	}
	// Oldest two were overwritten; survivors keep arrival order and
	// their monotone per-shard sequence numbers.
	for i, e := range evs {
		if e.Block != i+2 || e.Seq != uint64(i+2) {
			t.Fatalf("event %d: %+v", i, e)
		}
	}
}

func TestMergeEventsOrdering(t *testing.T) {
	a := []Event{{T: 5, Shard: 0, Seq: 0}, {T: 9, Shard: 0, Seq: 1}}
	b := []Event{{T: 5, Shard: 1, Seq: 0}, {T: 2, Shard: 1, Seq: 1}}
	got := MergeEvents(a, b)
	want := []struct {
		t     int64
		shard int
	}{{2, 1}, {5, 0}, {5, 1}, {9, 0}}
	for i, w := range want {
		if got[i].T != w.t || got[i].Shard != w.shard {
			t.Fatalf("merged[%d] = %+v, want T=%d shard=%d", i, got[i], w.t, w.shard)
		}
	}
}

func TestMergeSnapshotsSeries(t *testing.T) {
	shard0 := []Snapshot{
		row(mapSnapshot{Seq: 0, T: 100, Counters: map[string]int64{"x": 1}}),
		row(mapSnapshot{Seq: 1, T: 200, Counters: map[string]int64{"x": 3}}),
		row(mapSnapshot{Seq: FinalSeq, T: 250, Final: true, Counters: map[string]int64{"x": 4}}),
	}
	shard1 := []Snapshot{ // ended before interval 1
		row(mapSnapshot{Seq: 0, T: 100, Counters: map[string]int64{"x": 10}}),
		row(mapSnapshot{Seq: FinalSeq, T: 130, Final: true, Counters: map[string]int64{"x": 11}}),
	}
	got := MergeSnapshots(shard0, shard1)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	if got[0].Counter("x") != 11 || got[1].Counter("x") != 3 {
		t.Fatalf("intervals: x=%d, %d", got[0].Counter("x"), got[1].Counter("x"))
	}
	fin := got[2]
	if !fin.Final || fin.Seq != FinalSeq || fin.Counter("x") != 15 || fin.T != 250 {
		t.Fatalf("final: seq=%d t=%d x=%d", fin.Seq, fin.T, fin.Counter("x"))
	}
}

func TestObserverIntervalSnapshots(t *testing.T) {
	var clk sim.Clock
	o := New(Options{Metrics: true, MetricsInterval: 100, Trace: true})
	o.SetClock(&clk)
	o.SetShard(2)
	var ops int64
	o.RegisterCollector(func(s *Sample) { s.Counter("ops_total", ops) })

	ops++
	clk.Advance(sim.Duration(150)) // crosses boundary at t=100
	o.MaybeSnapshot(clk.Now())
	ops++
	clk.Advance(sim.Duration(200)) // crosses t=200 and t=300
	o.MaybeSnapshot(clk.Now())
	o.Event(Event{Kind: KindGCStart, Block: 1})
	o.Finish()
	o.Finish() // idempotent: replaces, not appends

	snaps := o.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("snapshots = %d, want 3 intervals + 1 final", len(snaps))
	}
	// Interval snapshots stamp the nominal boundary, not the clock.
	for i, wantT := range []int64{100, 200, 300} {
		if snaps[i].Seq != int64(i) || snaps[i].T != wantT {
			t.Fatalf("snap %d: seq=%d t=%d", i, snaps[i].Seq, snaps[i].T)
		}
	}
	if snaps[0].Counter("ops_total") != 1 || snaps[2].Counter("ops_total") != 2 {
		t.Fatalf("cumulative counters: %d then %d", snaps[0].Counter("ops_total"), snaps[2].Counter("ops_total"))
	}
	fin := snaps[3]
	if fin.Seq != FinalSeq || !fin.Final || fin.T != 350 {
		t.Fatalf("final: %+v", fin)
	}
	evs := o.Trace.Events()
	if len(evs) != 1 || evs[0].Shard != 2 || evs[0].T != 350 {
		t.Fatalf("event stamping: %+v", evs)
	}
	if o.Live() == nil || o.Live().Seq != FinalSeq {
		t.Fatal("Live must expose the latest published snapshot")
	}
}

func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer enabled")
	}
	// None of these may panic.
	o.SetShard(1)
	o.SetClock(nil)
	o.Event(Event{Kind: KindGCStart})
	o.RegisterCollector(func(*Sample) {})
	o.MaybeSnapshot(0)
	o.Finish()
	if o.Live() != nil || o.Snapshots() != nil {
		t.Fatal("nil observer must read as empty")
	}
	var tr *Tracer
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must read as empty")
	}
}

func TestBuildReport(t *testing.T) {
	mk := func(shard int, now sim.Time) *Observer {
		var clk sim.Clock
		clk.Advance(sim.Duration(now))
		o := New(Options{Metrics: true, Trace: true, TraceCapacity: 8})
		o.SetClock(&clk)
		o.SetShard(shard)
		o.RegisterCollector(func(s *Sample) { s.Counter("n_total", int64(shard+1)) })
		o.Event(Event{Kind: KindShardMerge, Block: -1})
		return o
	}
	a, b := mk(0, 300), mk(1, 120)
	rep := BuildReport(a, b)
	if len(rep.Snapshots) != 1 {
		t.Fatalf("snapshots: %+v", rep.Snapshots)
	}
	fin := rep.Snapshots[0]
	if fin.Counter("n_total") != 3 || fin.T != 300 || !fin.Final {
		t.Fatalf("merged final: %+v", fin)
	}
	if len(rep.Events) != 2 || rep.Events[0].Shard != 1 || rep.Events[1].Shard != 0 {
		t.Fatalf("events must sort by simulated time: %+v", rep.Events)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := row(mapSnapshot{T: 42,
		Counters:   map[string]int64{"b_total": 2, "a_total": 1},
		Gauges:     map[string]float64{"valid": 7},
		Histograms: map[string]mapHist{"lat": {Bounds: []int64{10}, Buckets: []int64{3, 1}, Count: 4, Sum: 25}}})
	s := &r
	var buf bytes.Buffer
	WritePrometheus(&buf, s)
	out := buf.String()
	if strings.Index(out, "a_total 1") > strings.Index(out, "b_total 2") {
		t.Fatalf("names must be sorted:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE a_total counter",
		"# TYPE valid gauge",
		"# TYPE lat histogram",
		`lat_bucket{le="10"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		"lat_sum 25",
		"lat_count 4",
		"sim_time_ns 42",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	WritePrometheus(&buf, nil)
	if !strings.Contains(buf.String(), "no snapshot") {
		t.Fatal("nil snapshot must render a comment, not panic")
	}
}

func TestJSONLWritersDeterministic(t *testing.T) {
	snaps := []Snapshot{row(mapSnapshot{Seq: 0, T: 1, Counters: map[string]int64{"b": 2, "a": 1}})}
	var x, y bytes.Buffer
	if err := WriteSnapshotsJSONL(&x, snaps); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotsJSONL(&y, snaps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Fatal("snapshot JSONL must be byte-stable")
	}
	if !strings.Contains(x.String(), `"counters":{"a":1,"b":2}`) {
		t.Fatalf("map keys must serialise sorted: %s", x.String())
	}
}

// TestLiveConcurrentReaders serves the live endpoint and reads Live
// from other goroutines while the simulation goroutine publishes
// interval snapshots; run under -race this is the proof that
// cross-goroutine readers only touch atomically published snapshots.
func TestLiveConcurrentReaders(t *testing.T) {
	var clk sim.Clock
	o := New(Options{MetricsInterval: 10})
	o.SetClock(&clk)
	var ops int64
	o.RegisterCollector(func(s *Sample) {
		s.Counter("ops_total", ops)
		s.Histogram("lat", HistogramSnapshot{Bounds: []int64{10}, Buckets: []int64{ops, 0}, Count: ops, Sum: ops})
	})
	h := Handler(func() []*Observer { return []*Observer{o} })

	const readers = 4
	const iters = 5000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
					continue
				}
				s := o.Live()
				if s == nil {
					continue
				}
				// Published snapshots are cumulative and immutable.
				v := s.Counter("ops_total")
				if v < last {
					t.Errorf("live counter went backwards: %d after %d", v, last)
					return
				}
				last = v
			}
		}(g)
	}
	for i := 0; i < iters; i++ {
		ops++
		clk.Advance(sim.Duration(3))
		o.MaybeSnapshot(clk.Now())
	}
	close(stop)
	wg.Wait()
	o.Finish()
	if got := o.Live().Counter("ops_total"); got != iters {
		t.Fatalf("final live counter = %d, want %d", got, iters)
	}
	if n := len(o.Snapshots()); n != iters*3/10+1 {
		t.Fatalf("%d snapshots, want %d intervals + final", n, iters*3/10)
	}
}
