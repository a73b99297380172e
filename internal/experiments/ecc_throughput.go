package experiments

import (
	"fmt"
	"time"

	"flashdc/internal/bch"
	"flashdc/internal/sim"
)

func init() {
	register("ecc-throughput", eccThroughput)
}

// eccThroughput sweeps the software BCH codec over the paper's full
// strength range on real 2KB pages and reports sustained pages/sec
// for encode and decode — decode once at an SLC-like error burden
// (one raw bit error, the young-cell regime of Table 1) and once at an
// MLC-like burden (t errors, a worn high-density page at its
// correction limit). The speedup columns measure the table-driven
// kernels against the retained bit-serial references on identical
// inputs, demonstrating end to end why the kernels exist: the paper's
// controller assumes ECC is cheap hardware (§4.1), and without the
// byte-wise tables the software codec, not the simulated device, is
// the experiment bottleneck.
//
// Unlike the simulation artifacts this table reports wall-clock
// throughput, so absolute numbers vary with the host; the shape —
// throughput falling with strength, MLC decode below SLC decode, and
// double-digit kernel speedups — is the stable claim.
func eccThroughput(o Options) *Table {
	t := &Table{
		ID:    "ecc-throughput",
		Title: "Software BCH throughput vs strength (2KB pages, SLC vs MLC error rates)",
		Note: "wall-clock; SLC decode = 1 raw bit error/page, MLC decode = t errors/page; " +
			"speedups vs the bit-serial reference kernels",
		Header: []string{"t", "parity_B", "enc_pages_s", "dec_slc_pages_s", "dec_mlc_pages_s", "enc_speedup", "syn_speedup"},
	}
	const dataBytes = 2048
	rng := sim.NewRNG(o.Seed + 97)
	for strength := 1; strength <= 12; strength++ {
		c, err := bch.New(15, strength, dataBytes*8)
		if err != nil {
			panic(fmt.Sprintf("experiments: ecc-throughput: %v", err))
		}
		data := make([]byte, dataBytes)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}

		parity := c.Encode(data)
		best := fastest(eccReps,
			func() float64 { return timePerOp(16, func() { c.AppendParity(parityScratch[:0], data) }) },
			func() float64 { return timePerOp(2, func() { c.EncodeBitSerial(data) }) },
			func() float64 { return timePerOp(16, func() { c.AppendSyndromes(syndScratch[:0], data, parity) }) },
			func() float64 { return timePerOp(2, func() { c.SyndromesBitSerial(data, parity) }) },
			func() float64 { return decodeSecPerOp(rng, c, data, 1) },
			func() float64 { return decodeSecPerOp(rng, c, data, strength) },
		)
		encSec, encSerialSec, synSec, synSerialSec, decSLCSec, decMLCSec :=
			best[0], best[1], best[2], best[3], best[4], best[5]

		t.AddRow(strength, c.ParityBytes(),
			1/encSec, 1/decSLCSec, 1/decMLCSec,
			encSerialSec/encSec, synSerialSec/synSec)
	}
	return t
}

// parityScratch and syndScratch keep the timed loops allocation-free so
// the table measures the kernels, not the garbage collector.
var (
	parityScratch [64]byte
	syndScratch   [32]uint16
)

// eccReps is how many interleaved rounds each cell is timed over.
// A cell reports its fastest round, so one preemption on a loaded host
// spoils a round rather than a ratio.
const eccReps = 5

// fastest times every cell once per round, for reps rounds, and
// returns each cell's minimum seconds per operation. Interleaving the
// rounds keeps the cells of one ratio close together in time.
func fastest(reps int, cells ...func() float64) []float64 {
	best := make([]float64, len(cells))
	for r := 0; r < reps; r++ {
		for i, cell := range cells {
			if sec := cell(); r == 0 || sec < best[i] {
				best[i] = sec
			}
		}
	}
	return best
}

// timePerOp returns the mean seconds per call over n calls, after one
// untimed warmup to populate caches.
func timePerOp(n int, op func()) float64 {
	op()
	start := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return time.Since(start).Seconds() / float64(n)
}

// decodeSecPerOp measures full corrupt→decode round trips and returns
// the mean seconds per page: each iteration re-flips nErr distinct bits
// (corruption setup is ~free next to the decode) and runs the whole
// syndrome→BM→Chien pipeline.
func decodeSecPerOp(rng *sim.RNG, c *bch.Code, data []byte, nErr int) float64 {
	parity := c.Encode(data)
	flip := func() {
		seen := map[int]bool{}
		for len(seen) < nErr {
			pos := rng.Intn(c.DataBits() + c.ParityBits())
			if seen[pos] {
				continue
			}
			seen[pos] = true
			if pos < c.DataBits() {
				data[pos/8] ^= 1 << (pos % 8)
			} else {
				p := pos - c.DataBits()
				parity[p/8] ^= 1 << (p % 8)
			}
		}
	}
	const n = 8
	// Warmup.
	flip()
	if _, err := c.Decode(data, parity); err != nil {
		panic(fmt.Sprintf("experiments: ecc-throughput: within-strength decode failed: %v", err))
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		flip()
		if _, err := c.Decode(data, parity); err != nil {
			panic(fmt.Sprintf("experiments: ecc-throughput: within-strength decode failed: %v", err))
		}
	}
	return time.Since(start).Seconds() / n
}
