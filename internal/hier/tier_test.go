package hier

import (
	"errors"
	"strings"
	"testing"

	"flashdc/internal/trace"
)

func tierTestConfig() Config {
	return Config{DRAMBytes: 1 << 20, FlashBytes: 16 << 20, Seed: 1}
}

// tierNames joins the per-level counter names, fastest first.
func tierNames(s *System) string {
	var names []string
	for _, ts := range s.TierStats() {
		names = append(names, ts.Name)
	}
	return strings.Join(names, ",")
}

// TestTierChainComposition: the assembled system reports DRAM, Flash,
// disk with Flash configured; DRAM, disk without.
func TestTierChainComposition(t *testing.T) {
	if got := tierNames(New(tierTestConfig())); got != "dram,flash,disk" {
		t.Fatalf("chain = %s", got)
	}
	if got := tierNames(New(Config{DRAMBytes: 1 << 20})); got != "dram,disk" {
		t.Fatalf("baseline chain = %s", got)
	}
}

// TestTierStatsCounters: the per-level counters must account for
// every page access — reads split into hits and misses at each
// level, misses cascading down, the bottom tier always hitting.
func TestTierStatsCounters(t *testing.T) {
	s := New(tierTestConfig())
	const pages = 500
	for lba := int64(0); lba < pages; lba++ {
		s.Handle(trace.Request{Op: trace.OpRead, LBA: lba, Pages: 1})
	}
	ts := s.TierStats()
	if len(ts) != 3 {
		t.Fatalf("%d tier stats", len(ts))
	}
	dramTS, flashTS, diskTS := ts[0], ts[1], ts[2]
	if dramTS.Name != "dram" || flashTS.Name != "flash" || diskTS.Name != "disk" {
		t.Fatalf("names: %+v", ts)
	}
	if dramTS.Reads != pages || dramTS.Hits+dramTS.Misses != dramTS.Reads {
		t.Fatalf("dram reads don't balance: %+v", dramTS)
	}
	// Cold reads: every DRAM miss walks down to Flash, every Flash
	// miss to disk, and the disk never misses.
	if flashTS.Reads != dramTS.Misses || diskTS.Reads != flashTS.Misses {
		t.Fatalf("miss cascade broken: dram %+v flash %+v disk %+v", dramTS, flashTS, diskTS)
	}
	if diskTS.Misses != 0 || diskTS.Hits != diskTS.Reads {
		t.Fatalf("bottom tier must always hit: %+v", diskTS)
	}
	// Re-reading the same pages now hits the caches.
	for lba := int64(0); lba < pages; lba++ {
		s.Handle(trace.Request{Op: trace.OpRead, LBA: lba, Pages: 1})
	}
	ts2 := s.TierStats()
	if gained := ts2[2].Reads - diskTS.Reads; gained != 0 {
		t.Fatalf("warm re-read went to disk %d times", gained)
	}

	s.ResetStats()
	for _, z := range s.TierStats() {
		if z.Reads != 0 || z.Hits != 0 || z.Misses != 0 || z.Writes != 0 {
			t.Fatalf("ResetStats left counters: %+v", z)
		}
	}
}

// TestHandleReportsBypass: a hierarchy whose Flash tier was bypassed
// (rejected metadata image) serves requests but reports
// ErrFlashBypassed on every Handle.
func TestHandleReportsBypass(t *testing.T) {
	cfg := tierTestConfig()
	cfg.FlashMetadata = strings.NewReader("corrupt")
	s := New(cfg)
	if s.FlashLoadErr() == nil {
		t.Fatal("want a load error")
	}
	lat, err := s.Handle(trace.Request{Op: trace.OpRead, LBA: 1, Pages: 1})
	if !errors.Is(err, ErrFlashBypassed) {
		t.Fatalf("Handle err = %v, want ErrFlashBypassed", err)
	}
	if lat <= 0 {
		t.Fatal("request must still be served")
	}
	if s.Flash() != nil {
		t.Fatal("bypassed hierarchy should have no Flash tier")
	}
}

// TestHandleHealthy: a healthy hierarchy reports no error.
func TestHandleHealthy(t *testing.T) {
	s := New(tierTestConfig())
	if _, err := s.Handle(trace.Request{Op: trace.OpWrite, LBA: 1, Pages: 1}); err != nil {
		t.Fatalf("Handle err = %v", err)
	}
}
