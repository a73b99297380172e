package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// Registry holds a shard's metrics collectors: callbacks that fold a
// component's existing counters into each snapshot. The first snapshot
// records the sequence of Sample calls the collectors make and fixes
// it as the registry's Schema; every later snapshot is one row of
// numbers in that schema, carved from the registry's arena. The set of
// series a shard reports depends only on its configuration, so a call
// sequence that drifts from the recorded one is a bug and panics. The
// zero value is an empty registry.
type Registry struct {
	collectors []func(*Sample)
	// schema is fixed by the first snapshot; nil before it.
	schema *Schema
	// calls is the recorded call sequence: the kind, name and column
	// of every Sample call a snapshot makes, in call order.
	calls []call
	// smp is the reusable sink handed to the collectors, and cur the
	// row it fills.
	smp   Sample
	cur   Snapshot
	arena arena
}

// kind is a series kind; each kind has its own columns.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	return [...]string{"Counter", "Gauge", "Histogram"}[k]
}

// call is one recorded Sample call: the series it feeds and that
// series' column in the schema.
type call struct {
	kind kind
	name string
	col  int
}

// RegisterCollector adds a snapshot-time sampling callback. Collectors
// run in registration order on the goroutine taking the snapshot, so a
// component's collector may freely read its own unsynchronised state
// as long as snapshots are taken from the goroutine driving it. A
// collector only reads: the first snapshot runs it twice, once to
// record the schema and once to fill the row. All collectors register
// before the first snapshot; registering one after it panics.
func (r *Registry) RegisterCollector(f func(*Sample)) {
	if r == nil || f == nil {
		return
	}
	if r.schema != nil {
		panic("obs: RegisterCollector after the first snapshot fixed the schema")
	}
	r.collectors = append(r.collectors, f)
}

// Snapshot runs every collector into one row stamped (seq, t). After
// the first snapshot it allocates nothing amortised: the row is carved
// from the registry's arena and the collectors write it by call
// position.
func (r *Registry) Snapshot(seq, t int64, final bool) Snapshot {
	r.smp.r = r
	if r.schema == nil {
		r.smp.shapes = make(map[string]histSpec)
		r.collect()
		r.fixSchema()
	}
	r.cur = r.arena.row(r.schema)
	r.collect()
	if r.smp.pos != len(r.calls) {
		panic(fmt.Sprintf("obs: collectors made %d Sample calls, the schema fixed at the first snapshot has %d",
			r.smp.pos, len(r.calls)))
	}
	s := r.cur
	s.Seq, s.T, s.Final = seq, t, final
	r.cur = Snapshot{}
	return s
}

func (r *Registry) collect() {
	r.smp.pos = 0
	for _, f := range r.collectors {
		f(&r.smp)
	}
}

// fixSchema builds the schema from the calls the recording pass saw
// and assigns each call its column.
func (r *Registry) fixSchema() {
	var cols columns
	for _, c := range r.calls {
		cols.add(c.kind, c.name, r.smp.shapes[c.name])
	}
	r.schema = cols.schema()
	for i := range r.calls {
		c := &r.calls[i]
		c.col = r.schema.col(c.kind, c.name)
	}
	r.smp.shapes = nil
}

// columns collects distinct series, first occurrence winning, for a
// new schema.
type columns struct {
	seen             map[call]bool
	counters, gauges []string
	hists            []histSpec
}

// add adds a series unless already present; h gives a histogram's
// shape.
func (c *columns) add(k kind, name string, h histSpec) {
	key := call{kind: k, name: name}
	if c.seen[key] {
		return
	}
	if c.seen == nil {
		c.seen = make(map[call]bool)
	}
	c.seen[key] = true
	switch k {
	case kindCounter:
		c.counters = append(c.counters, name)
	case kindGauge:
		c.gauges = append(c.gauges, name)
	case kindHistogram:
		c.hists = append(c.hists, h)
	}
}

// Sample is the sink a collector folds a component's counters into.
// Repeated calls under one name accumulate into one column, so several
// components can contribute to a shared series.
type Sample struct {
	r   *Registry
	pos int
	// shapes is non-nil only while the first snapshot records the call
	// sequence; it keeps each histogram's first bounds.
	shapes map[string]histSpec
}

// next returns the column of the call at the current position. While
// recording it appends the call instead and returns -1; afterwards it
// checks the call against the recorded sequence.
func (s *Sample) next(k kind, name string) int {
	if s.shapes != nil {
		s.r.calls = append(s.r.calls, call{kind: k, name: name})
		return -1
	}
	calls := s.r.calls
	i := s.pos
	if i >= len(calls) || calls[i].kind != k || calls[i].name != name {
		want := "nothing"
		if i < len(calls) {
			want = calls[i].kind.String() + " " + strconv.Quote(calls[i].name)
		}
		panic(fmt.Sprintf("obs: Sample call %d is %s %q, the schema fixed at the first snapshot expects %s",
			i, k, name, want))
	}
	s.pos++
	return calls[i].col
}

// Counter adds v to the named cumulative series.
func (s *Sample) Counter(name string, v int64) {
	if c := s.next(kindCounter, name); c >= 0 {
		s.r.cur.counters[c] += v
	}
}

// Gauge adds v to the named point-in-time series (per-shard gauges sum
// across shards in merged snapshots).
func (s *Sample) Gauge(name string, v float64) {
	if c := s.next(kindGauge, name); c >= 0 {
		s.r.cur.gauges[c] += v
	}
}

// Histogram folds hs into the named histogram series. It lets a
// component that already maintains its own distribution (for example
// the hierarchy's latency profile) publish it at snapshot time with
// zero hot-path cost. hs is copied; the caller may reuse it. Every
// call under one name must pass the bounds the first snapshot saw.
func (s *Sample) Histogram(name string, hs HistogramSnapshot) {
	c := s.next(kindHistogram, name)
	if c < 0 {
		if _, ok := s.shapes[name]; !ok {
			s.shapes[name] = histSpec{name: name, bounds: append([]int64(nil), hs.Bounds...), buckets: len(hs.Buckets)}
		}
		return
	}
	h := &s.r.schema.hists[c]
	if len(hs.Buckets) != h.buckets || !slices.Equal(hs.Bounds, h.bounds) {
		panic(fmt.Sprintf("obs: histogram %q changed its bounds after the first snapshot", h.name))
	}
	cells := s.r.cur.hists[h.off : h.off+h.buckets+2]
	for i, b := range hs.Buckets {
		cells[i] += b
	}
	cells[h.buckets] += hs.Count
	cells[h.buckets+1] += hs.Sum
}

// Schema is the fixed column layout of a registry's snapshots: its
// counter, gauge and histogram series, each kind in sorted name order,
// with every name JSON-quoted once so the row encoder's key escaping
// matches encoding/json by construction. A schema never changes once
// built; rows share it by pointer.
type Schema struct {
	counters, gauges []string
	hists            []histSpec
	// counterKeys and gaugeKeys hold the encoded `"name":` per column.
	counterKeys, gaugeKeys []string
	// histCells is the length of a row's histogram slab: each
	// histogram's buckets followed by its count and sum.
	histCells int
}

// histSpec is one histogram column: its bounds, its bucket count and
// where its cells start in a row's histogram slab.
type histSpec struct {
	name    string
	bounds  []int64
	buckets int
	off     int
	// key is the pre-encoded `"name":{"bounds":[...],"buckets":`.
	key string
}

// schema builds the schema over the collected series.
func (c *columns) schema() *Schema {
	sc := &Schema{counters: c.counters, gauges: c.gauges, hists: c.hists}
	sort.Strings(sc.counters)
	sort.Strings(sc.gauges)
	sort.Slice(sc.hists, func(i, j int) bool { return sc.hists[i].name < sc.hists[j].name })
	sc.counterKeys = quoteKeys(sc.counters)
	sc.gaugeKeys = quoteKeys(sc.gauges)
	for i := range sc.hists {
		h := &sc.hists[i]
		h.off = sc.histCells
		sc.histCells += h.buckets + 2
		b := append(quote(h.name), `:{"bounds":`...)
		b = appendInts(b, h.bounds)
		b = append(b, `,"buckets":`...)
		h.key = string(b)
	}
	return sc
}

func quote(name string) []byte {
	q, _ := json.Marshal(name) // a string always marshals
	return q
}

func quoteKeys(names []string) []string {
	keys := make([]string, len(names))
	for i, n := range names {
		keys[i] = string(quote(n)) + ":"
	}
	return keys
}

// col returns the column of the named series.
func (sc *Schema) col(k kind, name string) int {
	switch k {
	case kindCounter:
		return indexOf(sc.counters, name)
	case kindGauge:
		return indexOf(sc.gauges, name)
	}
	i := sort.Search(len(sc.hists), func(i int) bool { return sc.hists[i].name >= name })
	if i < len(sc.hists) && sc.hists[i].name == name {
		return i
	}
	return -1
}

// indexOf binary-searches a sorted name list; -1 if absent.
func indexOf(names []string, name string) int {
	if i := sort.SearchStrings(names, name); i < len(names) && names[i] == name {
		return i
	}
	return -1
}

// equal reports whether two schemas lay out the same columns.
func (sc *Schema) equal(o *Schema) bool {
	if sc == o {
		return true
	}
	if !slices.Equal(sc.counters, o.counters) || !slices.Equal(sc.gauges, o.gauges) || len(sc.hists) != len(o.hists) {
		return false
	}
	for i, h := range sc.hists {
		g := o.hists[i]
		if h.name != g.name || h.buckets != g.buckets || !slices.Equal(h.bounds, g.bounds) {
			return false
		}
	}
	return true
}

// arena hands out zeroed row storage carved from large chunks, so a
// snapshot costs no allocation of its own.
type arena struct {
	ints   []int64
	floats []float64
}

// arenaChunk is the number of values per chunk (64 KiB).
const arenaChunk = 8192

// row returns a zeroed row in schema sc.
func (a *arena) row(sc *Schema) Snapshot {
	return Snapshot{
		schema:   sc,
		counters: carve(&a.ints, len(sc.counters)),
		gauges:   carve(&a.floats, len(sc.gauges)),
		hists:    carve(&a.ints, sc.histCells),
	}
}

func carve[T int64 | float64](chunk *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(*chunk) {
		*chunk = make([]T, max(n, arenaChunk))
	}
	s := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return s
}

// LatencyBounds returns the standard request-latency bucket bounds in
// nanoseconds (10µs to 100ms, roughly logarithmic) used by the
// hierarchy's page-latency histogram.
func LatencyBounds() []int64 {
	return []int64{
		10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
		1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000,
		50_000_000, 100_000_000,
	}
}
