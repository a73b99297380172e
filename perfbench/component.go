package main

import (
	"fmt"
	"time"

	"flashdc/internal/core"
	"flashdc/internal/disk"
	"flashdc/internal/dram"
	"flashdc/internal/hier"
	"flashdc/internal/nand"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

// Component replays drive the dram, core, disk and sim layers through
// their public functions, in the order hier.System calls them, so each
// layer's host time can be measured on its own. The replay is exact:
// its counters must equal the in-situ replay's, or the layer row is
// invalid and the run fails.

// opKind tags one entry of the core-layer input log.
type opKind uint8

const (
	// opRead is a PDC read miss: core.Read, then on a Flash miss a
	// disk read and core.Insert.
	opRead opKind = iota
	// opWrite is a dirty PDC eviction written back into the Flash
	// cache (core.Write).
	opWrite
	// opPage ends one page access; lat is its PDC latency.
	opPage
	// opReq ends one request: the hierarchy clock advances by the sum
	// of its page latencies.
	opReq
	// opFlush is the end-of-run core.Flush after the PDC drain.
	opFlush
)

type logEntry struct {
	lba  int64
	lat  sim.Duration
	kind opKind
}

// diskBacking adapts the drive to core.Backing, as hier does.
type diskBacking struct{ d *disk.Disk }

func (b diskBacking) WritePage(int64) sim.Duration { return b.d.Write() }

// compResult is what the component replays of one shard measured.
type compResult struct {
	pages, reads, readHits, dirtyEvictions int64

	dramTime, histTime                 time.Duration
	coreRead, coreInsert, coreWrite    time.Duration
	nCoreRead, nCoreInsert, nCoreWrite int64
	coreStats                          core.Stats
	device                             nand.Stats
	sched                              sched.Stats
	disk                               disk.Stats
	hist                               sim.Histogram
}

// merge adds other's counters and times into c.
func (c *compResult) merge(o *compResult) {
	c.pages += o.pages
	c.reads += o.reads
	c.readHits += o.readHits
	c.dirtyEvictions += o.dirtyEvictions
	c.dramTime += o.dramTime
	c.histTime += o.histTime
	c.coreRead += o.coreRead
	c.coreInsert += o.coreInsert
	c.coreWrite += o.coreWrite
	c.nCoreRead += o.nCoreRead
	c.nCoreInsert += o.nCoreInsert
	c.nCoreWrite += o.nCoreWrite
	c.coreStats.Merge(o.coreStats)
	c.device.Merge(o.device)
	c.sched.Merge(o.sched)
	c.disk.Merge(o.disk)
	c.hist.Merge(&o.hist)
}

// components replays stream (one shard's requests) through fresh dram,
// core, disk and histogram instances built as hier.New builds them
// from cfg. Per traceBatch slice it times a pure dram pass, derives
// the core input log from a second dram instance, replays the log into
// core with each call timed (less the timer's own cost, overhead), and
// feeds the page latencies to a histogram.
func components(cfg hier.Config, stream []trace.Request, tr *tracer, parent int, overhead time.Duration) (*compResult, error) {
	res := &compResult{}
	pure := dram.NewCacheWithPolicy(cfg.DRAMBytes, cfg.PDCPolicy)
	logged := dram.NewCacheWithPolicy(cfg.DRAMBytes, cfg.PDCPolicy)
	dk, err := disk.New(cfg.Disk)
	if err != nil {
		return nil, err
	}
	fc := cfg.Flash
	if fc == (core.Config{}) {
		fc = core.DefaultConfig(cfg.FlashBytes)
	}
	fc.FlashBytes = cfg.FlashBytes
	fc.Seed = cfg.Seed
	fc.Backing = diskBacking{dk}
	fc.MissPenalty = dk.Config().ReadLatency
	flash, _, err := core.Open(fc, nil)
	if err != nil {
		return nil, err
	}
	var clock sim.Clock
	if fc.Sched.Active() {
		flash.AttachClock(&clock)
	} else {
		flash.AttachTimeBase(&clock)
	}

	rp := &coreReplay{res: res, flash: flash, disk: dk, clock: &clock, overhead: overhead}
	var log []logEntry
	for b, off := 0, 0; off < len(stream); b++ {
		batch := stream[off:min(off+traceBatch, len(stream))]
		off += len(batch)

		id := tr.begin("dram.replay", parent, b)
		for _, r := range batch {
			for p := 0; p < pagesOf(r); p++ {
				lba := r.LBA + int64(p)
				if r.Op == trace.OpRead {
					if hit, _ := pure.Read(lba); !hit {
						pure.Fill(lba)
					}
				} else {
					pure.Write(lba)
				}
			}
		}
		res.dramTime += tr.end(id)

		log = log[:0]
		for _, r := range batch {
			for p := 0; p < pagesOf(r); p++ {
				log = res.logPage(log, logged, r.Op, r.LBA+int64(p))
			}
			log = append(log, logEntry{kind: opReq})
		}

		id = tr.begin("core.replay", parent, b)
		rp.run(log)
		tr.end(id)

		id = tr.begin("sim.hist", parent, b)
		for _, l := range rp.lats {
			res.hist.Observe(l)
		}
		res.histTime += tr.end(id)
	}

	// End of run: hier.Drain writes the dirty PDC pages into the Flash
	// cache, then flushes it.
	log = log[:0]
	for _, lba := range logged.DirtyPages() {
		log = append(log, logEntry{kind: opWrite, lba: lba})
		logged.Clean(lba)
	}
	log = append(log, logEntry{kind: opFlush})
	rp.run(log)

	res.coreStats = flash.Stats()
	res.device = flash.DeviceStats()
	res.sched = flash.SchedStats()
	res.disk = dk.Stats()
	return res, nil
}

func pagesOf(r trace.Request) int { return max(1, r.Pages) }

// logPage performs one page access on the PDC as hier.System does and
// appends the core-layer work it causes, then the page's end marker
// carrying the PDC's share of its latency.
func (res *compResult) logPage(log []logEntry, c *dram.Cache, op trace.Op, lba int64) []logEntry {
	res.pages++
	var lat sim.Duration
	var ev dram.Evicted
	var evicted bool
	if op == trace.OpRead {
		res.reads++
		hit, l := c.Read(lba)
		if hit {
			res.readHits++
			return append(log, logEntry{kind: opPage, lat: l})
		}
		// The Flash lookup (and fill) precedes the PDC fill.
		log = append(log, logEntry{kind: opRead, lba: lba})
		lat, ev, evicted = c.Fill(lba)
	} else {
		lat, ev, evicted = c.Write(lba)
	}
	if evicted && ev.Dirty {
		res.dirtyEvictions++
		log = append(log, logEntry{kind: opWrite, lba: ev.LBA})
	}
	return append(log, logEntry{kind: opPage, lat: lat})
}

// coreReplay feeds a core input log into the Flash cache, timing each
// call, and rebuilds the page latencies and the hierarchy clock.
type coreReplay struct {
	res      *compResult
	flash    *core.Cache
	disk     *disk.Disk
	clock    *sim.Clock
	overhead time.Duration
	// lats holds the page latencies of the last run; pageLat and
	// reqLat accumulate the current page and request.
	lats            []sim.Duration
	pageLat, reqLat sim.Duration
}

func (rp *coreReplay) run(log []logEntry) {
	res := rp.res
	rp.lats = rp.lats[:0]
	for _, e := range log {
		switch e.kind {
		case opRead:
			t := time.Now()
			out := rp.flash.Read(e.lba)
			res.coreRead += time.Since(t) - rp.overhead
			res.nCoreRead++
			if out.Hit {
				rp.pageLat += out.Latency
				continue
			}
			rp.pageLat += rp.disk.Read()
			t = time.Now()
			rp.flash.Insert(e.lba)
			res.coreInsert += time.Since(t) - rp.overhead
			res.nCoreInsert++
		case opWrite:
			t := time.Now()
			rp.flash.Write(e.lba)
			res.coreWrite += time.Since(t) - rp.overhead
			res.nCoreWrite++
		case opPage:
			lat := rp.pageLat + e.lat
			rp.lats = append(rp.lats, lat)
			rp.reqLat += lat
			rp.pageLat = 0
		case opReq:
			rp.clock.Advance(rp.reqLat)
			rp.reqLat = 0
		case opFlush:
			rp.flash.Flush()
		}
	}
}

// timerOverhead estimates what one time.Now/time.Since pair adds to a
// timed call, from the median of repeated empty measurements.
func timerOverhead() time.Duration {
	xs := make([]float64, 0, 10001)
	for i := 0; i < cap(xs); i++ {
		t := time.Now()
		xs = append(xs, float64(time.Since(t)))
	}
	return time.Duration(median(xs))
}

// compare reports every counter on which the component replay differs
// from the in-situ replay's outputs.
func (res *compResult) compare(out outputs) error {
	var diffs []string
	check := func(name string, got, want any) {
		if got != want {
			diffs = append(diffs, fmt.Sprintf("%s: component %v, in situ %v", name, got, want))
		}
	}
	check("PDC hits", res.readHits, out.Stats.PDCHits)
	check("flash hits", res.coreStats.Hits, out.Stats.FlashHits)
	check("disk reads", res.disk.Reads, out.Stats.DiskReads)
	check("core stats", res.coreStats, out.Flash)
	check("nand stats", res.device, out.Device)
	check("sched stats", res.sched, out.Sched)
	check("latency histogram", histDigest(&res.hist), out.Latencies)
	if len(diffs) > 0 {
		return fmt.Errorf("component replay disagrees with the in-situ replay: %v", diffs)
	}
	return nil
}
