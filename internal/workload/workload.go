// Package workload generates the disk access streams of paper Table 4:
// the synthetic micro-benchmarks (uniform, Zipf with alpha 0.8/1.2/1.6,
// exponential with lambda 0.01/0.1, each over a 512MB footprint) and
// synthetic equivalents of the macro-benchmarks (dbt2/OLTP, SPECWeb99,
// WebSearch1/2 and Financial1/2).
//
// The UMass trace repository files the paper used for the macro
// workloads are not redistributable; the generators here match their
// published characteristics instead — working-set size (Figure 7
// quotes 5116.7MB for WebSearch1 and 443.8MB for Financial2),
// read/write mix, and tail shape — so every controller code path sees
// the same pressure. DESIGN.md section 3 records this substitution.
package workload

import (
	"fmt"
	"sort"
	"strings"

	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

// PageBytes is the footprint unit (2KB disk pages).
const PageBytes = 2048

// mustZipf and mustExp wrap the sim sampler constructors for the
// catalog builders: every parameter reaching them has been validated by
// New (positive page counts, at most 2.6M pages for the largest
// catalog footprint, well inside NewZipf's math.MaxInt32 limit) or is
// a catalog constant (positive alpha / lambda), so a constructor error
// here is an internal invariant violation, not a configuration problem.
func mustZipf(rng *sim.RNG, n int, alpha float64) *sim.Zipf {
	z, err := sim.NewZipf(rng, n, alpha)
	if err != nil {
		panic("workload: internal: " + err.Error())
	}
	return z
}

func mustExp(rng *sim.RNG, n int, lambda float64) *sim.Exponential {
	e, err := sim.NewExponential(rng, n, lambda)
	if err != nil {
		panic("workload: internal: " + err.Error())
	}
	return e
}

// Generator produces an endless request stream.
type Generator interface {
	// Next returns the next request.
	Next() trace.Request
	// Name identifies the workload (Table 4 naming).
	Name() string
	// FootprintPages is the number of distinct pages the stream can
	// touch (the working set size).
	FootprintPages() int64
}

// ranked samples page popularity ranks and maps them onto a shuffled
// page space, with an independent popularity law and footprint for
// reads and writes.
type ranked struct {
	name       string
	pages      int64
	writeFrac  float64
	readRank   func() int
	writeRank  func() int
	rng        *sim.RNG
	seqRunLeft int
	seqNext    int64
	seqRun     int // average sequential run length (0 = none)
}

func (g *ranked) Name() string { return g.name }

func (g *ranked) FootprintPages() int64 { return g.pages }

func (g *ranked) Next() trace.Request {
	// Optional sequential run continuation (web/OLTP scans).
	if g.seqRunLeft > 0 {
		g.seqRunLeft--
		lba := g.seqNext
		g.seqNext++
		if g.seqNext >= g.pages {
			g.seqNext = 0
		}
		return trace.Request{Op: trace.OpRead, LBA: lba, Pages: 1}
	}
	if g.rng.Bool(g.writeFrac) {
		return trace.Request{Op: trace.OpWrite, LBA: int64(g.writeRank()), Pages: 1}
	}
	lba := int64(g.readRank())
	if g.seqRun > 0 && g.rng.Bool(1.0/float64(g.seqRun)) {
		g.seqRunLeft = g.rng.Intn(2*g.seqRun) + 1
		g.seqNext = lba + 1
	}
	return trace.Request{Op: trace.OpRead, LBA: lba, Pages: 1}
}

// Spec describes a workload for the factory.
type Spec struct {
	// Name is the Table 4 identifier.
	Name string
	// Kind is "micro" or "macro".
	Kind string
	// Description mirrors the Table 4 text.
	Description string
	build       func(pages int64, writeFrac float64, seed uint64) Generator
	// FootprintBytes is the unscaled working set (Table 4 / Figure 7).
	FootprintBytes int64
	// WriteFraction is the stream's write share.
	WriteFraction float64
}

func zipfBuilder(name string, alpha float64, writeWSSFrac float64) func(int64, float64, uint64) Generator {
	return func(pages int64, writeFrac float64, seed uint64) Generator {
		rng := sim.NewRNG(seed)
		read := mustZipf(rng, int(pages), alpha)
		wPages := int(float64(pages) * writeWSSFrac)
		if wPages < 16 {
			wPages = 16
		}
		write := mustZipf(rng, wPages, alpha)
		return &ranked{
			name: name, pages: pages, writeFrac: writeFrac, rng: rng,
			readRank: read.Next, writeRank: write.Next,
		}
	}
}

func expBuilder(name string, lambda float64) func(int64, float64, uint64) Generator {
	return func(pages int64, writeFrac float64, seed uint64) Generator {
		rng := sim.NewRNG(seed)
		// Lambda is quoted for the paper's 512MB footprint (262144
		// pages); rescale so the tail shape is footprint-invariant.
		l := lambda * 262144 / float64(pages)
		read := mustExp(rng, int(pages), l)
		write := mustExp(rng, int(pages), l)
		return &ranked{
			name: name, pages: pages, writeFrac: writeFrac, rng: rng,
			readRank: read.Next, writeRank: write.Next,
		}
	}
}

func uniformBuilder(name string) func(int64, float64, uint64) Generator {
	return func(pages int64, writeFrac float64, seed uint64) Generator {
		rng := sim.NewRNG(seed)
		rank := func() int { return rng.Intn(int(pages)) }
		return &ranked{
			name: name, pages: pages, writeFrac: writeFrac, rng: rng,
			readRank: rank, writeRank: rank,
		}
	}
}

func macroBuilder(name string, alpha, writeWSSFrac float64, seqRun int) func(int64, float64, uint64) Generator {
	return func(pages int64, writeFrac float64, seed uint64) Generator {
		rng := sim.NewRNG(seed)
		read := mustZipf(rng, int(pages), alpha)
		wPages := int(float64(pages) * writeWSSFrac)
		if wPages < 16 {
			wPages = 16
		}
		write := mustZipf(rng, wPages, alpha)
		return &ranked{
			name: name, pages: pages, writeFrac: writeFrac, rng: rng,
			readRank: read.Next, writeRank: write.Next, seqRun: seqRun,
		}
	}
}

// Catalog lists every Table 4 workload in the paper's order.
var Catalog = []Spec{
	{Name: "uniform", Kind: "micro", Description: "uniform distribution of size 512MB",
		build: uniformBuilder("uniform"), FootprintBytes: 512 << 20, WriteFraction: 0.3},
	{Name: "alpha1", Kind: "micro", Description: "zipf distribution of size 512MB, alpha=0.8",
		build: zipfBuilder("alpha1", 0.8, 1.0), FootprintBytes: 512 << 20, WriteFraction: 0.3},
	{Name: "alpha2", Kind: "micro", Description: "zipf distribution of size 512MB, alpha=1.2",
		build: zipfBuilder("alpha2", 1.2, 1.0), FootprintBytes: 512 << 20, WriteFraction: 0.3},
	{Name: "alpha3", Kind: "micro", Description: "zipf distribution of size 512MB, alpha=1.6",
		build: zipfBuilder("alpha3", 1.6, 1.0), FootprintBytes: 512 << 20, WriteFraction: 0.3},
	{Name: "exp1", Kind: "micro", Description: "exponential distribution of size 512MB, lambda=0.01",
		build: expBuilder("exp1", 0.01), FootprintBytes: 512 << 20, WriteFraction: 0.3},
	{Name: "exp2", Kind: "micro", Description: "exponential distribution of size 512MB, lambda=0.1",
		build: expBuilder("exp2", 0.1), FootprintBytes: 512 << 20, WriteFraction: 0.3},
	{Name: "dbt2", Kind: "macro", Description: "OLTP 2GB database (synthetic dbt2 equivalent)",
		build: macroBuilder("dbt2", 1.0, 0.02, 0), FootprintBytes: 2 << 30, WriteFraction: 0.15},
	{Name: "SPECWeb99", Kind: "macro", Description: "1.8GB SPECWeb99 disk image (synthetic equivalent)",
		build: macroBuilder("SPECWeb99", 1.2, 0.02, 8), FootprintBytes: 1843 << 20, WriteFraction: 0.05},
	{Name: "WebSearch1", Kind: "macro", Description: "search engine access pattern 1 (synthetic UMass equivalent)",
		build: macroBuilder("WebSearch1", 0.75, 0.01, 0), FootprintBytes: 5116 << 20, WriteFraction: 0.01},
	{Name: "WebSearch2", Kind: "macro", Description: "search engine access pattern 2 (synthetic UMass equivalent)",
		build: macroBuilder("WebSearch2", 0.85, 0.01, 0), FootprintBytes: 4096 << 20, WriteFraction: 0.01},
	{Name: "Financial1", Kind: "macro", Description: "financial OLTP pattern 1, write-heavy (synthetic UMass equivalent)",
		build: macroBuilder("Financial1", 1.5, 0.30, 0), FootprintBytes: 600 << 20, WriteFraction: 0.77},
	{Name: "Financial2", Kind: "macro", Description: "financial OLTP pattern 2, read-heavy (synthetic UMass equivalent)",
		build: macroBuilder("Financial2", 1.5, 0.20, 0), FootprintBytes: 444 << 20, WriteFraction: 0.18},
}

// Names returns the catalog identifiers in order.
func Names() []string {
	out := make([]string, len(Catalog))
	for i, s := range Catalog {
		out[i] = s.Name
	}
	return out
}

// Lookup finds a spec by (case-insensitive) name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Catalog {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return Spec{}, false
}

// New builds the named workload at the given footprint scale (1.0 =
// the paper's full size; experiments shrink footprints the same way
// the paper scaled its benchmarks to fit simulation). Seed selects the
// random stream.
func New(name string, scale float64, seed uint64) (Generator, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("workload: scale %v outside (0,1]", scale)
	}
	pages := int64(float64(spec.FootprintBytes) * scale / PageBytes)
	if pages < 64 {
		pages = 64
	}
	return spec.build(pages, spec.WriteFraction, seed), nil
}

// MustNew is New for static workload names in experiments.
func MustNew(name string, scale float64, seed uint64) Generator {
	g, err := New(name, scale, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// PopularityCounts runs the generator for n requests and returns the
// per-page read counts sorted descending — the popularity profile the
// Figure 7 SLC/MLC partition study needs.
func PopularityCounts(g Generator, n int) []int {
	counts := make(map[int64]int)
	for i := 0; i < n; i++ {
		r := g.Next()
		if r.Op == trace.OpRead {
			r.Expand(func(lba int64) { counts[lba]++ })
		}
	}
	out := make([]int, 0, len(counts))
	for _, c := range counts {
		out = append(out, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
