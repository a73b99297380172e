package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// mapSnapshot is the map form of a snapshot: the struct rows replaced,
// whose encoding/json output the row encoder must reproduce byte for
// byte, and whose map-union merge MergeSnapshots must reproduce.
type mapSnapshot struct {
	Seq        int64              `json:"seq"`
	T          int64              `json:"t"`
	Final      bool               `json:"final,omitempty"`
	Counters   map[string]int64   `json:"counters,omitempty"`
	Gauges     map[string]float64 `json:"gauges,omitempty"`
	Histograms map[string]mapHist `json:"histograms,omitempty"`
}

type mapHist struct {
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
}

func (h mapHist) snapshot() HistogramSnapshot {
	return HistogramSnapshot{Bounds: h.Bounds, Buckets: h.Buckets, Count: h.Count, Sum: h.Sum}
}

func (h mapHist) clone() mapHist {
	h.Bounds = append([]int64(nil), h.Bounds...)
	h.Buckets = append([]int64(nil), h.Buckets...)
	return h
}

// row builds the row a registry takes of m's series.
func row(m mapSnapshot) Snapshot {
	var r Registry
	r.RegisterCollector(func(s *Sample) {
		for _, name := range sortedKeys(m.Counters) {
			s.Counter(name, m.Counters[name])
		}
		for _, name := range sortedKeys(m.Gauges) {
			s.Gauge(name, m.Gauges[name])
		}
		for _, name := range sortedKeys(m.Histograms) {
			s.Histogram(name, m.Histograms[name].snapshot())
		}
	})
	return r.Snapshot(m.Seq, m.T, m.Final)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// testCall is one collector call with its value.
type testCall struct {
	kind kind
	name string
	i    int64
	f    float64
	h    mapHist
}

func (c testCall) apply(s *Sample) {
	switch c.kind {
	case kindCounter:
		s.Counter(c.name, c.i)
	case kindGauge:
		s.Gauge(c.name, c.f)
	default:
		s.Histogram(c.name, c.h.snapshot())
	}
}

// applyMap is the map-form Sample the rows replaced: adds accumulate,
// the first histogram under a name is cloned and later ones merge,
// bucket-wise only when the bucket counts agree.
func applyMap(m *mapSnapshot, calls []testCall) {
	m.Counters = map[string]int64{}
	m.Gauges = map[string]float64{}
	m.Histograms = map[string]mapHist{}
	for _, c := range calls {
		switch c.kind {
		case kindCounter:
			m.Counters[c.name] += c.i
		case kindGauge:
			m.Gauges[c.name] += c.f
		default:
			cur, ok := m.Histograms[c.name]
			if !ok {
				m.Histograms[c.name] = c.h.clone()
				continue
			}
			cur.merge(c.h)
			m.Histograms[c.name] = cur
		}
	}
}

func (h *mapHist) merge(o mapHist) {
	h.Count += o.Count
	h.Sum += o.Sum
	if len(h.Buckets) == len(o.Buckets) {
		for i := range h.Buckets {
			h.Buckets[i] += o.Buckets[i]
		}
	}
}

func (m mapSnapshot) clone() mapSnapshot {
	out := m
	if m.Counters != nil {
		out.Counters = make(map[string]int64)
		for k, v := range m.Counters {
			out.Counters[k] = v
		}
	}
	if m.Gauges != nil {
		out.Gauges = make(map[string]float64)
		for k, v := range m.Gauges {
			out.Gauges[k] = v
		}
	}
	if m.Histograms != nil {
		out.Histograms = make(map[string]mapHist)
		for k, v := range m.Histograms {
			out.Histograms[k] = v.clone()
		}
	}
	return out
}

func (m *mapSnapshot) merge(o mapSnapshot) {
	if o.T > m.T {
		m.T = o.T
	}
	for k, v := range o.Counters {
		if m.Counters == nil {
			m.Counters = make(map[string]int64)
		}
		m.Counters[k] += v
	}
	for k, v := range o.Gauges {
		if m.Gauges == nil {
			m.Gauges = make(map[string]float64)
		}
		m.Gauges[k] += v
	}
	for k, h := range o.Histograms {
		if m.Histograms == nil {
			m.Histograms = make(map[string]mapHist)
		}
		cur, ok := m.Histograms[k]
		if !ok {
			m.Histograms[k] = h.clone()
			continue
		}
		cur.merge(h)
		m.Histograms[k] = cur
	}
}

// mapMerge is the map-union MergeSnapshots the vector merge replaced.
func mapMerge(series ...[]mapSnapshot) []mapSnapshot {
	var intervals []mapSnapshot
	var final *mapSnapshot
	for _, shard := range series {
		for _, s := range shard {
			if s.Seq == FinalSeq {
				if final == nil {
					c := s.clone()
					final = &c
				} else {
					final.merge(s)
				}
				continue
			}
			for int64(len(intervals)) <= s.Seq {
				intervals = append(intervals, mapSnapshot{Seq: int64(len(intervals)), T: s.T})
			}
			if cur := &intervals[s.Seq]; cur.Counters == nil && cur.Gauges == nil && cur.Histograms == nil {
				*cur = s.clone()
			} else {
				cur.merge(s)
			}
		}
	}
	if final != nil {
		intervals = append(intervals, *final)
	}
	return intervals
}

// Names that exercise JSON escaping, HTML escaping, invalid UTF-8 and
// byte-wise sort order.
var testNames = []string{"a", "b_total", "B", "", "x<y>&z", `quote"d`, "tab\tnl\n", "é", "\xff", "a_total", "zz"}

// testFloats are the gauge values at encoding/json's format edges.
var testFloats = []float64{
	0, math.Copysign(0, -1), -1, 1, 0.1 + 0.2, 1e-7, -1e-7, 1e-6, 9.99e-7, 1e21, -1e21, 1e20,
	999999999999999999999, 1 << 53, 123456789012345680000, 5e-324, math.MaxFloat64, 0.5, -273.15,
}

// shardPlan is one random shard: its call layout and its snapshots'
// identity fields; each snapshot draws fresh values for the layout.
type shardPlan struct {
	layout []testCall // kinds, names and histogram shapes
	seqs   []int64
}

func randomLayout(rng *rand.Rand) []testCall {
	bounds := map[string][]int64{}
	var layout []testCall
	for n := rng.Intn(9); n > 0; n-- {
		c := testCall{kind: kind(rng.Intn(3)), name: testNames[rng.Intn(len(testNames))]}
		if c.kind == kindHistogram {
			b, ok := bounds[c.name]
			if !ok {
				switch k := rng.Intn(5); k {
				case 0: // the zero histogram: no bounds, no buckets
					b = nil
				default:
					b = make([]int64, k-1)
					for i := range b {
						b[i] = int64(10 * (i + 1))
					}
				}
				bounds[c.name] = b
			}
			c.h.Bounds = b
			if b != nil {
				c.h.Buckets = make([]int64, len(b)+1)
			}
		}
		layout = append(layout, c)
	}
	return layout
}

func randomValues(rng *rand.Rand, layout []testCall) []testCall {
	calls := make([]testCall, len(layout))
	for i, c := range layout {
		switch c.kind {
		case kindCounter:
			c.i = []int64{0, -1, 1, math.MaxInt64 / 4, rng.Int63n(1e6) - 5e5}[rng.Intn(5)]
		case kindGauge:
			if rng.Intn(2) == 0 {
				c.f = testFloats[rng.Intn(len(testFloats))]
			} else {
				c.f = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(50)-25))
			}
		default:
			c.h.Buckets = append([]int64(nil), c.h.Buckets...)
			for j := range c.h.Buckets {
				c.h.Buckets[j] = rng.Int63n(100)
			}
			c.h.Count, c.h.Sum = rng.Int63n(1000), rng.Int63n(1e9)-1e8
		}
		calls[i] = c
	}
	return calls
}

// build takes one registry's snapshots along the plan, returning the
// rows and their map forms.
func (p shardPlan) build(rng *rand.Rand) ([]Snapshot, []mapSnapshot) {
	var r Registry
	var cur []testCall
	r.RegisterCollector(func(s *Sample) {
		for _, c := range cur {
			c.apply(s)
		}
	})
	var rows []Snapshot
	var maps []mapSnapshot
	for i, seq := range p.seqs {
		cur = randomValues(rng, p.layout)
		t := int64(100*i) + rng.Int63n(50)
		rows = append(rows, r.Snapshot(seq, t, seq == FinalSeq))
		m := mapSnapshot{Seq: seq, T: t, Final: seq == FinalSeq}
		applyMap(&m, cur)
		maps = append(maps, m)
	}
	return rows, maps
}

func randomSeqs(rng *rand.Rand) []int64 {
	var seqs []int64
	for seq, n := int64(0), rng.Intn(5); n > 0; n-- {
		seqs = append(seqs, seq)
		seq += 1 + int64(rng.Intn(4)/3) // an occasional gap
	}
	if rng.Intn(3) > 0 {
		seqs = append(seqs, FinalSeq)
	}
	return seqs
}

// encodeMaps is the encoding/json output for the map forms, with the
// error it stops at.
func encodeMaps(maps []mapSnapshot) (string, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range maps {
		if err := enc.Encode(&maps[i]); err != nil {
			return buf.String(), err
		}
	}
	return buf.String(), nil
}

func encodeRows(rows []Snapshot) (string, error) {
	var buf bytes.Buffer
	err := WriteSnapshotsJSONL(&buf, rows)
	return buf.String(), err
}

// sameEncoding fails unless rows and maps serialise to the same bytes
// and stop at the same error.
func sameEncoding(t *testing.T, what string, rows []Snapshot, maps []mapSnapshot) {
	t.Helper()
	got, gerr := encodeRows(rows)
	want, werr := encodeMaps(maps)
	if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: row encoding differs\n got %s (err %v)\nwant %s (err %v)", what, got, gerr, want, werr)
	}
}

// TestRowEncoderMatchesEncodingJSON: over random schemas and values,
// WriteSnapshotsJSONL and Snapshot.MarshalJSON emit exactly the bytes
// encoding/json emits for the equivalent map-form struct.
func TestRowEncoderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		p := shardPlan{layout: randomLayout(rng), seqs: randomSeqs(rng)}
		rows, maps := p.build(rng)
		sameEncoding(t, fmt.Sprintf("iteration %d", iter), rows, maps)
		for i := range rows {
			got, err := json.Marshal(rows[i])
			if err != nil {
				t.Fatal(err)
			}
			want, _ := json.Marshal(maps[i])
			if !bytes.Equal(got, want) {
				t.Fatalf("iteration %d: MarshalJSON differs\n got %s\nwant %s", iter, got, want)
			}
		}
	}
	// Every edge value on its own, and the empty snapshot.
	for _, f := range testFloats {
		p := shardPlan{layout: []testCall{{kind: kindGauge, name: "g"}}, seqs: []int64{0}}
		rows, maps := p.build(rng)
		rows[0].gauges[0], maps[0].Gauges["g"] = f, f
		sameEncoding(t, fmt.Sprint("gauge ", f), rows, maps)
	}
	sameEncoding(t, "zero snapshot", []Snapshot{{Seq: 3, T: 4}}, []mapSnapshot{{Seq: 3, T: 4}})
}

// TestRowEncoderRejectsNonFinite: a NaN or infinite gauge fails with
// encoding/json's error type, after the lines before it are written.
func TestRowEncoderRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		good := mapSnapshot{Seq: 0, T: 1, Counters: map[string]int64{"c": 1}}
		bad := mapSnapshot{Seq: 1, T: 2, Gauges: map[string]float64{"g": f}}
		var buf bytes.Buffer
		err := WriteSnapshotsJSONL(&buf, []Snapshot{row(good), row(bad)})
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) {
			t.Fatalf("gauge %v: error %v, want *json.UnsupportedValueError", f, err)
		}
		sameEncoding(t, fmt.Sprint("gauge ", f), []Snapshot{row(good), row(bad)}, []mapSnapshot{good, bad})
	}
}

// TestMergeRowsMatchesMapUnion: merging rows gives exactly the
// map-union merge, for shards sharing one schema (the vector fast
// path) and for shards with different schemas, different histogram
// bounds, different series lengths and gaps.
func TestMergeRowsMatchesMapUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		shared := randomLayout(rng)
		var rowSeries [][]Snapshot
		var mapSeries [][]mapSnapshot
		for n := rng.Intn(4) + 1; n > 0; n-- {
			p := shardPlan{layout: shared, seqs: randomSeqs(rng)}
			if iter%2 == 1 && rng.Intn(2) == 0 {
				p.layout = randomLayout(rng)
			}
			rows, maps := p.build(rng)
			rowSeries = append(rowSeries, rows)
			mapSeries = append(mapSeries, maps)
		}
		sameEncoding(t, fmt.Sprintf("iteration %d: merge", iter), MergeSnapshots(rowSeries...), mapMerge(mapSeries...))
	}
}

// TestMergeRowsLive: the live view merges rows of different Seq into
// one, keeping the first's identity and the furthest clock.
func TestMergeRowsLive(t *testing.T) {
	a := row(mapSnapshot{Seq: 4, T: 10, Counters: map[string]int64{"x": 1}})
	b := row(mapSnapshot{Seq: FinalSeq, T: 30, Final: true, Counters: map[string]int64{"x": 2, "y": 5}})
	m := mergeRows([]*Snapshot{&a, &b})
	if m.Seq != 4 || m.Final || m.T != 30 || m.Counter("x") != 3 || m.Counter("y") != 5 {
		t.Fatalf("live merge: %s", fmt.Sprint(m.Seq, m.T, m.Counter("x"), m.Counter("y")))
	}
}

// TestSnapshotMergeAndClone: merging two rows sums counters, gauges
// and histogram cells key-wise and takes the furthest clock, and leaves
// the input rows exactly as they were taken, so a row needs no clone
// before it is merged.
func TestSnapshotMergeAndClone(t *testing.T) {
	am := mapSnapshot{Seq: 1, T: 10,
		Counters:   map[string]int64{"x": 1},
		Gauges:     map[string]float64{"g": 2},
		Histograms: map[string]mapHist{"h": {Bounds: []int64{5}, Buckets: []int64{1, 0}, Count: 1, Sum: 3}}}
	bm := mapSnapshot{Seq: 1, T: 25,
		Counters:   map[string]int64{"x": 4, "y": 9},
		Histograms: map[string]mapHist{"h": {Bounds: []int64{5}, Buckets: []int64{0, 2}, Count: 2, Sum: 20}}}
	a, b := row(am), row(bm)
	merged := MergeSnapshots([]Snapshot{a}, []Snapshot{b})
	// Interval 0, which neither shard reached, precedes the merged row.
	if len(merged) != 2 {
		t.Fatalf("merged %d rows, want 2", len(merged))
	}
	m := &merged[1]
	if m.Seq != 1 || m.T != 25 || m.Counter("x") != 5 || m.Counter("y") != 9 || m.Gauge("g") != 2 {
		t.Fatalf("merged: seq %d t %d x %d y %d g %v", m.Seq, m.T, m.Counter("x"), m.Counter("y"), m.Gauge("g"))
	}
	h, ok := m.Histogram("h")
	if !ok || h.Count != 3 || h.Sum != 23 || h.Buckets[0] != 1 || h.Buckets[1] != 2 {
		t.Fatalf("merged histogram: %+v", h)
	}
	// The inputs must be unaffected by the merge, and the merged row
	// must not alias them: merging it again leaves it as it was.
	sameEncoding(t, "first input after merge", []Snapshot{a}, []mapSnapshot{am})
	sameEncoding(t, "second input after merge", []Snapshot{b}, []mapSnapshot{bm})
	again := MergeSnapshots(merged, []Snapshot{a})
	if m.Counter("x") != 5 || again[1].Counter("x") != 6 {
		t.Fatalf("merged row aliased: x %d, merged again %d", m.Counter("x"), again[1].Counter("x"))
	}
	if h, _ := m.Histogram("h"); h.Count != 3 || h.Buckets[0] != 1 {
		t.Fatalf("merged histogram aliased: %+v", h)
	}
}
