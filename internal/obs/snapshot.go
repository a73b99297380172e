package obs

import (
	"encoding/json"
	"io"
)

// FinalSeq is the Seq value of the final end-of-run snapshot, kept
// distinct from interval sequence numbers (0, 1, 2, ...).
const FinalSeq int64 = -1

// Snapshot is one cumulative capture of a registry: every counter,
// gauge and histogram value plus everything the collectors sampled, as
// of simulated time T. Snapshots merge across shards field by field;
// the `merge` tags drive both Merge and the reflection test that keeps
// this struct and Merge honest.
type Snapshot struct {
	// Seq is the interval index (0, 1, 2, ...), or FinalSeq for the
	// end-of-run snapshot. Identical across the shards being merged.
	Seq int64 `json:"seq" merge:"keep"`
	// T is the simulated timestamp in nanoseconds: the nominal interval
	// boundary for interval snapshots, and the furthest shard clock for
	// merged final snapshots.
	T int64 `json:"t" merge:"max"`
	// Final marks the end-of-run snapshot.
	Final bool `json:"final,omitempty" merge:"keep"`
	// Counters holds the cumulative counter series, summed across
	// shards.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges holds the point-in-time series; per-shard gauges are sums
	// of shard-local quantities (valid pages, queue depths), so merging
	// sums them too.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms holds the fixed-bound histogram series, merged
	// bucket-wise.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is a histogram's cumulative state: Buckets[i]
// counts observations <= Bounds[i], with Buckets[len(Bounds)] the +Inf
// overflow bucket.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bucket limits; identical across
	// the shards being merged.
	Bounds []int64 `json:"bounds" merge:"keep"`
	// Buckets are the per-bucket observation counts (one longer than
	// Bounds), summed across shards.
	Buckets []int64 `json:"buckets"`
	// Count is the total observation count.
	Count int64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum int64 `json:"sum"`
}

// Merge folds other into h bucket-wise. Mismatched bounds (which only
// a bug can produce — series names determine bounds) merge by
// Count/Sum only, keeping h's buckets.
func (h *HistogramSnapshot) Merge(other HistogramSnapshot) {
	h.Count += other.Count
	h.Sum += other.Sum
	if len(h.Buckets) == len(other.Buckets) {
		for i := range h.Buckets {
			h.Buckets[i] += other.Buckets[i]
		}
	}
}

// Clone returns a deep copy.
func (h HistogramSnapshot) Clone() HistogramSnapshot {
	h.Bounds = append([]int64(nil), h.Bounds...)
	h.Buckets = append([]int64(nil), h.Buckets...)
	return h
}

// Merge folds other into s: counters and gauges sum, histograms merge
// bucket-wise, T takes the maximum (for final snapshots, the furthest
// shard clock).
func (s *Snapshot) Merge(other Snapshot) {
	if other.T > s.T {
		s.T = other.T
	}
	for name, v := range other.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]int64)
		}
		s.Counters[name] += v
	}
	for name, v := range other.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]float64)
		}
		s.Gauges[name] += v
	}
	for name, h := range other.Histograms {
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSnapshot)
		}
		cur, ok := s.Histograms[name]
		if !ok {
			s.Histograms[name] = h.Clone()
			continue
		}
		cur.Merge(h)
		s.Histograms[name] = cur
	}
}

// Clone returns a deep copy of the snapshot.
func (s Snapshot) Clone() Snapshot {
	out := s
	if s.Counters != nil {
		out.Counters = make(map[string]int64, len(s.Counters))
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
	}
	if s.Gauges != nil {
		out.Gauges = make(map[string]float64, len(s.Gauges))
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
	}
	if s.Histograms != nil {
		out.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for k, v := range s.Histograms {
			out.Histograms[k] = v.Clone()
		}
	}
	return out
}

// MergeSnapshots folds per-shard snapshot series into one series: for
// each interval index the shards' snapshots merge into one (shards are
// folded in argument order — shard index order from the engine — so
// the result is scheduling-independent), and the shards' final
// snapshots merge into one trailing final snapshot. A shard whose run
// ended before an interval boundary simply stops contributing; the
// merged series keeps every Seq any shard reached.
func MergeSnapshots(series ...[]Snapshot) []Snapshot {
	var intervals []Snapshot
	var final *Snapshot
	for _, shard := range series {
		for _, s := range shard {
			if s.Seq == FinalSeq {
				if final == nil {
					c := s.Clone()
					final = &c
				} else {
					final.Merge(s)
				}
				continue
			}
			for int64(len(intervals)) <= s.Seq {
				intervals = append(intervals, Snapshot{Seq: int64(len(intervals)), T: s.T})
			}
			if intervals[s.Seq].Counters == nil && intervals[s.Seq].Gauges == nil && intervals[s.Seq].Histograms == nil {
				c := s.Clone()
				c.Seq = s.Seq
				intervals[s.Seq] = c
			} else {
				intervals[s.Seq].Merge(s)
			}
		}
	}
	if final != nil {
		intervals = append(intervals, *final)
	}
	return intervals
}

// WriteSnapshotsJSONL writes one JSON object per snapshot, one per
// line. encoding/json sorts map keys, so for deterministic snapshot
// contents the bytes are deterministic too.
func WriteSnapshotsJSONL(w io.Writer, snaps []Snapshot) error {
	enc := json.NewEncoder(w)
	for i := range snaps {
		if err := enc.Encode(&snaps[i]); err != nil {
			return err
		}
	}
	return nil
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
