package obs

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
)

// FinalSeq is the Seq value of the final end-of-run snapshot, kept
// distinct from interval sequence numbers (0, 1, 2, ...).
const FinalSeq int64 = -1

// Snapshot is one cumulative capture of a registry as of simulated
// time T: a row of counter, gauge and histogram values laid out by a
// Schema shared with every other row of the same registry. A snapshot
// never changes once taken; merging builds new rows. Read it through
// the accessors, or serialise it with WriteSnapshotsJSONL.
type Snapshot struct {
	// Seq is the interval index (0, 1, 2, ...), or FinalSeq for the
	// end-of-run snapshot. Identical across the shards being merged.
	Seq int64
	// T is the simulated timestamp in nanoseconds: the nominal interval
	// boundary for interval snapshots, and the furthest shard clock for
	// merged final snapshots.
	T int64
	// Final marks the end-of-run snapshot.
	Final bool

	schema *Schema
	// counters and gauges hold one value per schema column; gauges are
	// sums of shard-local quantities (valid pages, queue depths), so
	// merging sums them like counters.
	counters []int64
	gauges   []float64
	// hists holds each histogram's buckets, count and sum back to back
	// at the offsets the schema assigns.
	hists []int64
}

// HistogramSnapshot is a histogram's cumulative state: Buckets[i]
// counts observations <= Bounds[i], with Buckets[len(Bounds)] the +Inf
// overflow bucket.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bucket limits.
	Bounds []int64
	// Buckets are the per-bucket observation counts (one longer than
	// Bounds).
	Buckets []int64
	// Count is the total observation count.
	Count int64
	// Sum is the sum of all observed values.
	Sum int64
}

// sch returns the snapshot's schema; a zero Snapshot has the empty one.
func (s *Snapshot) sch() *Schema {
	if s.schema == nil {
		return emptySchema
	}
	return s.schema
}

var emptySchema = new(columns).schema()

// Counter returns the named counter, 0 if the snapshot has no such
// series.
func (s *Snapshot) Counter(name string) int64 {
	if i := indexOf(s.sch().counters, name); i >= 0 {
		return s.counters[i]
	}
	return 0
}

// Gauge returns the named gauge, 0 if the snapshot has no such series.
func (s *Snapshot) Gauge(name string) float64 {
	if i := indexOf(s.sch().gauges, name); i >= 0 {
		return s.gauges[i]
	}
	return 0
}

// Histogram returns the named histogram and whether the snapshot has
// it. The result shares the snapshot's storage and must not be
// modified.
func (s *Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	i := s.sch().col(kindHistogram, name)
	if i < 0 {
		return HistogramSnapshot{}, false
	}
	return s.histogramAt(i), true
}

func (s *Snapshot) histogramAt(i int) HistogramSnapshot {
	h := &s.schema.hists[i]
	cells := s.hists[h.off : h.off+h.buckets+2]
	return HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: cells[:h.buckets:h.buckets],
		Count:   cells[h.buckets],
		Sum:     cells[h.buckets+1],
	}
}

// EachCounter calls f for every counter in sorted name order.
func (s *Snapshot) EachCounter(f func(name string, v int64)) {
	for i, name := range s.sch().counters {
		f(name, s.counters[i])
	}
}

// EachGauge calls f for every gauge in sorted name order.
func (s *Snapshot) EachGauge(f func(name string, v float64)) {
	for i, name := range s.sch().gauges {
		f(name, s.gauges[i])
	}
}

// EachHistogram calls f for every histogram in sorted name order; h
// shares the snapshot's storage and must not be modified.
func (s *Snapshot) EachHistogram(f func(name string, h HistogramSnapshot)) {
	for i := range s.sch().hists {
		f(s.schema.hists[i].name, s.histogramAt(i))
	}
}

// MergeSnapshots folds per-shard snapshot series into one series: for
// each interval index the shards' snapshots merge into one (shards are
// folded in argument order — shard index order from the engine — so
// the result is scheduling-independent), and the shards' final
// snapshots merge into one trailing final snapshot. Counters, gauges
// and histogram cells sum, and T takes the maximum. A shard whose run
// ended before an interval boundary simply stops contributing; the
// merged series keeps every Seq any shard reached.
//
// Shards normally share one schema, and their rows merge as plain
// vector sums. A shard with a different schema (for example one whose
// Flash tier was bypassed) merges over the union of the columns of
// the shards contributing to each row, so a series appears in a merged
// row exactly when some contributing shard reported it. A histogram
// keeps the bounds of its first contributor; a contributor with a
// different bucket count adds only its count and sum.
func MergeSnapshots(series ...[]Snapshot) []Snapshot {
	var m merger
	intervals, hasFinal := 0, false
	uniform := true
	var first *Schema
	for _, shard := range series {
		for i := range shard {
			s := &shard[i]
			if s.Seq == FinalSeq {
				hasFinal = true
			} else if int(s.Seq) >= intervals {
				intervals = int(s.Seq) + 1
			}
			c := m.canonical(s.schema)
			if first == nil {
				first = c
			} else if c != first {
				uniform = false
			}
		}
	}
	n := intervals
	if hasFinal {
		n++
	}
	if n == 0 {
		return nil
	}
	slot := func(s *Snapshot) int {
		if s.Seq == FinalSeq {
			return intervals
		}
		return int(s.Seq)
	}
	// Each output row's schema is the union over its contributors; with
	// one schema throughout that is the schema itself.
	schemas := make([]*Schema, n)
	if uniform {
		for i := range schemas {
			schemas[i] = first
		}
	} else {
		sets := make([][]*Schema, n)
		for _, shard := range series {
			for i := range shard {
				j := slot(&shard[i])
				sets[j] = addSchema(sets[j], m.canonical(shard[i].schema))
			}
		}
		for j, set := range sets {
			if set != nil {
				schemas[j] = m.union(set)
			}
		}
	}

	out := make([]Snapshot, n)
	reached := 0
	for _, shard := range series {
		for i := range shard {
			s := &shard[i]
			j := slot(s)
			// An interval index no shard reached keeps the stamp of the
			// snapshot that first skipped past it.
			for ; s.Seq != FinalSeq && reached < j; reached++ {
				out[reached].Seq, out[reached].T = int64(reached), s.T
			}
			if s.Seq != FinalSeq && reached == j {
				reached++
			}
			m.fold(&out[j], s, schemas[j])
		}
	}
	return out
}

// mergeRows merges snapshots of possibly different Seq into one row,
// keeping the first's Seq and Final (the live Prometheus view).
func mergeRows(rows []*Snapshot) *Snapshot {
	var m merger
	var set []*Schema
	for _, s := range rows {
		set = addSchema(set, m.canonical(s.schema))
	}
	sc := m.union(set)
	out := &Snapshot{}
	for _, s := range rows {
		m.fold(out, s, sc)
	}
	return out
}

// merger holds the state of one merge: the distinct schemas seen, the
// unions built from them and the arena the merged rows are carved
// from.
type merger struct {
	canon           []*Schema
	lastIn, lastOut *Schema
	unions          map[string]*Schema
	arena           arena
}

// canonical returns the first-seen schema equal to sc, so equal
// schemas compare by pointer. Consecutive rows of one shard share a
// pointer, so the content comparison runs once per shard, not per row.
func (m *merger) canonical(sc *Schema) *Schema {
	if sc == nil {
		sc = emptySchema
	}
	if sc == m.lastIn {
		return m.lastOut
	}
	out := (*Schema)(nil)
	for _, c := range m.canon {
		if c.equal(sc) {
			out = c
			break
		}
	}
	if out == nil {
		out = sc
		m.canon = append(m.canon, sc)
	}
	m.lastIn, m.lastOut = sc, out
	return out
}

// addSchema appends sc to the contributor set unless already there.
func addSchema(set []*Schema, sc *Schema) []*Schema {
	for _, c := range set {
		if c == sc {
			return set
		}
	}
	return append(set, sc)
}

// union returns the schema over every column of the canonical schemas
// in set; a histogram takes its bounds from the first schema that has
// it.
func (m *merger) union(set []*Schema) *Schema {
	if len(set) == 1 {
		return set[0]
	}
	key := make([]byte, 0, 8*len(set))
	for _, sc := range set {
		for i, c := range m.canon {
			if c == sc {
				key = strconv.AppendInt(key, int64(i), 10)
				key = append(key, ',')
			}
		}
	}
	if u, ok := m.unions[string(key)]; ok {
		return u
	}
	var cols columns
	for _, sc := range set {
		for _, name := range sc.counters {
			cols.add(kindCounter, name, histSpec{})
		}
		for _, name := range sc.gauges {
			cols.add(kindGauge, name, histSpec{})
		}
		for _, h := range sc.hists {
			cols.add(kindHistogram, h.name, h)
		}
	}
	u := cols.schema()
	if m.unions == nil {
		m.unions = make(map[string]*Schema)
	}
	m.unions[string(key)] = u
	return u
}

// fold adds src into dst, first giving an untouched dst a zeroed row
// in schema sc and src's identity fields.
func (m *merger) fold(dst, src *Snapshot, sc *Schema) {
	if dst.schema == nil {
		*dst = m.arena.row(sc)
		dst.Seq, dst.T, dst.Final = src.Seq, src.T, src.Final
	} else if src.T > dst.T {
		dst.T = src.T
	}
	from := m.canonical(src.schema)
	if from == sc {
		addInts(dst.counters, src.counters)
		for i, v := range src.gauges {
			dst.gauges[i] += v
		}
		addInts(dst.hists, src.hists)
		return
	}
	// Schemas differ only in the rare union case, so columns are looked
	// up by name.
	for i, name := range from.counters {
		dst.counters[sc.col(kindCounter, name)] += src.counters[i]
	}
	for i, name := range from.gauges {
		dst.gauges[sc.col(kindGauge, name)] += src.gauges[i]
	}
	for i := range from.hists {
		sh := &from.hists[i]
		dh := &sc.hists[sc.col(kindHistogram, sh.name)]
		s := src.hists[sh.off : sh.off+sh.buckets+2]
		d := dst.hists[dh.off : dh.off+dh.buckets+2]
		if sh.buckets == dh.buckets {
			addInts(d, s)
		} else {
			d[dh.buckets] += s[sh.buckets]
			d[dh.buckets+1] += s[sh.buckets+1]
		}
	}
}

func addInts(dst, src []int64) {
	for i, v := range src {
		dst[i] += v
	}
}

// WriteSnapshotsJSONL writes one JSON object per snapshot, one per
// line, exactly as encoding/json would encode the map form
// {"seq","t","final","counters","gauges","histograms"} with sorted keys
// and omitempty on the last four. Lines are appended into one reused
// buffer; a NaN or infinite gauge fails with the
// *json.UnsupportedValueError encoding/json reports, after the lines
// before it are written.
func WriteSnapshotsJSONL(w io.Writer, snaps []Snapshot) error {
	const flushAt = 64 << 10
	buf := make([]byte, 0, 2*flushAt)
	for i := range snaps {
		line := len(buf)
		var err error
		if buf, err = snaps[i].appendJSON(buf); err != nil {
			if _, werr := w.Write(buf[:line]); werr != nil {
				return werr
			}
			return err
		}
		buf = append(buf, '\n')
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		_, err := w.Write(buf)
		return err
	}
	return nil
}

// MarshalJSON encodes the snapshot as WriteSnapshotsJSONL does, so
// encoding/json callers see the same object.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	return s.appendJSON(nil)
}

// appendJSON appends the snapshot's JSON object to b.
func (s *Snapshot) appendJSON(b []byte) ([]byte, error) {
	sc := s.sch()
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, s.Seq, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, s.T, 10)
	if s.Final {
		b = append(b, `,"final":true`...)
	}
	if len(sc.counters) > 0 {
		b = append(b, `,"counters":{`...)
		for i, v := range s.counters {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, sc.counterKeys[i]...)
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, '}')
	}
	if len(sc.gauges) > 0 {
		b = append(b, `,"gauges":{`...)
		for i, v := range s.gauges {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, sc.gaugeKeys[i]...)
			var err error
			if b, err = appendFloat(b, v); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	if len(sc.hists) > 0 {
		b = append(b, `,"histograms":{`...)
		for i := range sc.hists {
			h := &sc.hists[i]
			cells := s.hists[h.off : h.off+h.buckets+2]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, h.key...)
			b = appendInts(b, cells[:h.buckets])
			b = append(b, `,"count":`...)
			b = strconv.AppendInt(b, cells[h.buckets], 10)
			b = append(b, `,"sum":`...)
			b = strconv.AppendInt(b, cells[h.buckets+1], 10)
			b = append(b, '}')
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendInts encodes an int64 slice as encoding/json does, with an
// empty slice as null (rows never hold a non-nil empty one: Clone
// turns it into nil).
func appendInts(b []byte, v []int64) []byte {
	if len(v) == 0 {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ']')
}

// appendFloat encodes f by encoding/json's float64 rule: the shortest
// 'f' form, or 'e' below 1e-6 and at or above 1e21 with a one-digit
// negative exponent unpadded.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// WriteEventsJSONL writes one JSON object per event, one per line.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return nil
}
