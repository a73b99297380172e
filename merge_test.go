package flashdc

// Reflection-driven tests for the stats Merge methods the sharded
// engine relies on: every exported numeric field of every mergeable
// counter struct must come out as the sum of the inputs. Driving the
// check by reflection means a field added to a struct but forgotten in
// its Merge fails here instead of silently under-reporting in merged
// shard reports.

import (
	"reflect"
	"testing"

	"flashdc/internal/core"
	"flashdc/internal/disk"
	"flashdc/internal/dram"
	"flashdc/internal/fault"
	"flashdc/internal/hier"
	"flashdc/internal/nand"
	"flashdc/internal/obs"
	"flashdc/internal/power"
	"flashdc/internal/sched"
	"flashdc/internal/tables"
	"flashdc/internal/trace"
)

// fillCounters assigns a distinct nonzero value to every settable
// numeric field of the struct v points to, returning how many fields
// it touched. Values are spaced so sums cannot collide by accident.
func fillCounters(t *testing.T, v reflect.Value, base int64) int {
	t.Helper()
	n := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() {
			continue
		}
		n++
		val := base + int64(i+1)*7
		switch f.Kind() {
		case reflect.Int64, reflect.Int:
			f.SetInt(val)
		case reflect.Float64:
			f.SetFloat(float64(val))
		case reflect.String:
			n-- // identity fields (TierStats.Name) are not counters
		default:
			t.Fatalf("%s.%s: unhandled kind %v", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
	return n
}

// checkMergedSums verifies every settable numeric field of got equals
// the sum of the corresponding fields of a and b.
func checkMergedSums(t *testing.T, got, a, b reflect.Value) {
	t.Helper()
	for i := 0; i < got.NumField(); i++ {
		f := got.Field(i)
		if !f.CanSet() {
			continue
		}
		name := got.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int64, reflect.Int:
			if want := a.Field(i).Int() + b.Field(i).Int(); f.Int() != want {
				t.Errorf("%s.%s = %d, want %d", got.Type(), name, f.Int(), want)
			}
		case reflect.Float64:
			if want := a.Field(i).Float() + b.Field(i).Float(); f.Float() != want {
				t.Errorf("%s.%s = %v, want %v", got.Type(), name, f.Float(), want)
			}
		}
	}
}

// mergeByName invokes dst.Merge(src) whatever the method's receiver
// and argument shapes (pointer or value) are.
func mergeByName(t *testing.T, dst, src reflect.Value) {
	t.Helper()
	m := dst.Addr().MethodByName("Merge")
	if !m.IsValid() {
		t.Fatalf("%s has no Merge method", dst.Type())
	}
	arg := src
	if m.Type().In(0).Kind() == reflect.Ptr {
		arg = src.Addr()
	}
	m.Call([]reflect.Value{arg})
}

func TestStatsMergeSumsEveryField(t *testing.T) {
	structs := []any{
		hier.Stats{},
		hier.TierStats{},
		core.Stats{},
		nand.Stats{},
		disk.Stats{},
		dram.Stats{},
		fault.Stats{},
		tables.FGST{},
		sched.Stats{},
	}
	for _, s := range structs {
		typ := reflect.TypeOf(s)
		t.Run(typ.String(), func(t *testing.T) {
			a := reflect.New(typ).Elem()
			b := reflect.New(typ).Elem()
			if n := fillCounters(t, a, 1000); n == 0 {
				t.Fatalf("%s has no settable counter fields", typ)
			}
			fillCounters(t, b, 500000)
			merged := reflect.New(typ).Elem()
			merged.Set(a)
			mergeByName(t, merged, b)
			checkMergedSums(t, merged, a, b)
		})
	}
}

// obsRow takes one snapshot of a registry reporting the given series.
func obsRow(seq, t int64, final bool, counters map[string]int64, gauges map[string]float64,
	hists map[string]obs.HistogramSnapshot) obs.Snapshot {
	var r obs.Registry
	r.RegisterCollector(func(s *obs.Sample) {
		for _, name := range []string{"c", "onlyA", "onlyB"} {
			if v, ok := counters[name]; ok {
				s.Counter(name, v)
			}
		}
		if v, ok := gauges["g"]; ok {
			s.Gauge("g", v)
		}
		if h, ok := hists["h"]; ok {
			s.Histogram("h", h)
		}
	})
	return r.Snapshot(seq, t, final)
}

// TestObsSnapshotMergeHonoursTags checks every part of a merged obs
// snapshot against its merge rule: Seq and Final keep the shards'
// shared identity, T takes the maximum, counters and gauges sum
// key-wise (a series one shard lacks copies through), histogram
// bounds keep the first contributor's and buckets, count and sum add
// element-wise.
func TestObsSnapshotMergeHonoursTags(t *testing.T) {
	hA := obs.HistogramSnapshot{Bounds: []int64{10, 20}, Buckets: []int64{1, 2, 3}, Count: 6, Sum: 30}
	hB := obs.HistogramSnapshot{Bounds: []int64{10, 20}, Buckets: []int64{4, 5, 6}, Count: 15, Sum: 100}
	for _, final := range []bool{false, true} {
		seq := int64(3)
		if final {
			seq = obs.FinalSeq
		}
		a := obsRow(seq, 10, final, map[string]int64{"c": 1, "onlyA": 2},
			map[string]float64{"g": 1.5}, map[string]obs.HistogramSnapshot{"h": hA})
		b := obsRow(seq, 25, final, map[string]int64{"c": 10, "onlyB": 20},
			map[string]float64{"g": 2.5}, map[string]obs.HistogramSnapshot{"h": hB})
		merged := obs.MergeSnapshots([]obs.Snapshot{a}, []obs.Snapshot{b})
		m := &merged[len(merged)-1]
		if m.Seq != seq || m.Final != final {
			t.Errorf("final=%v: Seq %d Final %v, want the shards' %d %v", final, m.Seq, m.Final, seq, final)
		}
		if m.T != 25 {
			t.Errorf("final=%v: T = %d, want max 25", final, m.T)
		}
		counters := map[string]int64{}
		m.EachCounter(func(name string, v int64) { counters[name] = v })
		if want := map[string]int64{"c": 11, "onlyA": 2, "onlyB": 20}; !reflect.DeepEqual(counters, want) {
			t.Errorf("final=%v: counters %v, want key-wise sum %v", final, counters, want)
		}
		if g := m.Gauge("g"); g != 4 {
			t.Errorf("final=%v: gauge g = %v, want sum 4", final, g)
		}
		h, ok := m.Histogram("h")
		want := obs.HistogramSnapshot{Bounds: []int64{10, 20}, Buckets: []int64{5, 7, 9}, Count: 21, Sum: 130}
		if !ok || !reflect.DeepEqual(h, want) {
			t.Errorf("final=%v: histogram %+v, want %+v", final, h, want)
		}
	}
}

func TestPowerBreakdownAdd(t *testing.T) {
	a := power.Breakdown{MemRead: 1, MemWrite: 2, MemIdle: 3, Flash: 4, Disk: 5}
	b := power.Breakdown{MemRead: 10, MemWrite: 20, MemIdle: 30, Flash: 40, Disk: 50}
	got := reflect.ValueOf(a.Add(b))
	checkMergedSums(t, got, reflect.ValueOf(a), reflect.ValueOf(b))
	if sum := a.Add(b); sum.Total() != a.Total()+b.Total() {
		t.Fatalf("Total = %v, want %v", sum.Total(), a.Total()+b.Total())
	}
}

func TestTraceStatsMerge(t *testing.T) {
	// Two accumulators over overlapping streams: counters add, the
	// unique-page footprint unions.
	a, b := trace.NewStats(), trace.NewStats()
	a.Add(trace.Request{Op: trace.OpRead, LBA: 0, Pages: 4})
	a.Add(trace.Request{Op: trace.OpWrite, LBA: 2, Pages: 2})
	b.Add(trace.Request{Op: trace.OpRead, LBA: 2, Pages: 6})
	a.Merge(b)
	if a.Requests != 3 || a.ReadPages != 10 || a.WritePages != 2 {
		t.Fatalf("counters: %+v", a)
	}
	// Pages 0..7 were touched across both streams.
	if a.UniquePages() != 8 {
		t.Fatalf("UniquePages = %d, want 8", a.UniquePages())
	}
	a.Merge(nil) // must be a no-op
	if a.Requests != 3 {
		t.Fatal("nil merge disturbed the receiver")
	}
}
