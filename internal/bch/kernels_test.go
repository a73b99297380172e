package bch

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"flashdc/internal/sim"
)

// This file pins the table-driven kernels (kernels.go) to the retained
// bit-serial reference implementations across every strength the paper
// uses (1..12 over GF(2^15)) plus the small-field codes that exercise
// the p<8 fallback, under random error patterns up to t+2 — beyond
// design strength, where the decoders must still agree on detection.

// sweepCodes returns the differential sweep: all 12 page-code
// strengths at a moderate payload, the two full 2KB-page corner codes,
// and small fields including one with fewer than 8 parity bits (the
// encoder's bit-serial fallback).
func sweepCodes(t testing.TB) []*Code {
	var codes []*Code
	for strength := 1; strength <= 12; strength++ {
		c, err := New(15, strength, 1024)
		if err != nil {
			t.Fatalf("New(15,%d,1024): %v", strength, err)
		}
		codes = append(codes, c)
	}
	for _, p := range []struct{ m, t, dataBits int }{
		{15, 8, 2048 * 8},
		{15, 12, 2048 * 8},
		{8, 1, 128}, // p = 8: one-row encode table
		{6, 1, 32},  // p = 6 < 8: table-free fallback path
		{10, 3, 512},
	} {
		c, err := New(p.m, p.t, p.dataBits)
		if err != nil {
			t.Fatalf("New(%d,%d,%d): %v", p.m, p.t, p.dataBits, err)
		}
		codes = append(codes, c)
	}
	return codes
}

func randomData(rng *sim.RNG, c *Code) []byte {
	data := make([]byte, (c.DataBits()+7)/8)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	return data
}

func codeName(c *Code) string {
	return fmt.Sprintf("m=%d/t=%d/k=%d", c.field.M(), c.T(), c.DataBits())
}

func TestAppendParityMatchesBitSerial(t *testing.T) {
	rng := sim.NewRNG(41)
	for _, c := range sweepCodes(t) {
		t.Run(codeName(c), func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				data := randomData(rng, c)
				want := c.EncodeBitSerial(data)
				got := c.AppendParity(nil, data)
				if !bytes.Equal(got, want) {
					t.Fatalf("trial %d: parity diverges\n table: %x\nserial: %x", trial, got, want)
				}
				// Append form must preserve an existing prefix.
				prefixed := c.AppendParity([]byte{0xAB, 0xCD}, data)
				if prefixed[0] != 0xAB || prefixed[1] != 0xCD || !bytes.Equal(prefixed[2:], want) {
					t.Fatalf("trial %d: AppendParity clobbered its dst prefix", trial)
				}
			}
		})
	}
}

func TestAppendSyndromesMatchesBitSerial(t *testing.T) {
	rng := sim.NewRNG(42)
	for _, c := range sweepCodes(t) {
		t.Run(codeName(c), func(t *testing.T) {
			// Error weights from clean through detection-only overload.
			for _, nErr := range []int{0, 1, c.T(), c.T() + 1, c.T() + 2} {
				data := randomData(rng, c)
				parity := c.Encode(data)
				corruptBits(rng, data, parity, nErr, c.DataBits(), c.ParityBits())
				want := c.SyndromesBitSerial(data, parity)
				got := c.AppendSyndromes(nil, data, parity)
				if len(got) != len(want) {
					t.Fatalf("nErr=%d: %d syndromes, reference has %d", nErr, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("nErr=%d: S_%d = %#x, reference %#x", nErr, i+1, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestChienSearchMatchesRef feeds both Chien implementations the same
// genuine error-locator polynomials and requires identical root sets.
func TestChienSearchMatchesRef(t *testing.T) {
	rng := sim.NewRNG(43)
	for _, c := range sweepCodes(t) {
		t.Run(codeName(c), func(t *testing.T) {
			for _, nErr := range []int{1, c.T(), c.T() + 1} {
				data := randomData(rng, c)
				parity := c.Encode(data)
				corruptBits(rng, data, parity, nErr, c.DataBits(), c.ParityBits())

				sc := &decodeScratch{}
				synd := c.AppendSyndromes(nil, data, parity)
				sigma, ok := c.berlekampMassey(synd, sc)
				if !ok {
					continue // BM overload: no locator to search
				}
				wantPos, wantOK := c.chienSearchRef(sigma)
				gotPos, gotOK := c.chienSearch(sigma, sc)
				if gotOK != wantOK {
					t.Fatalf("nErr=%d: chienSearch ok=%v, reference %v", nErr, gotOK, wantOK)
				}
				if !wantOK {
					continue
				}
				got := append([]int(nil), gotPos...)
				want := append([]int(nil), wantPos...)
				sort.Ints(got)
				sort.Ints(want)
				if len(got) != len(want) {
					t.Fatalf("nErr=%d: %d roots, reference %d", nErr, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("nErr=%d: roots %v, reference %v", nErr, got, want)
					}
				}
			}
		})
	}
}

// TestDecodePipelineProperty is the end-to-end property over the
// sweep: any pattern of up to t errors is corrected exactly, and
// beyond-strength patterns never silently pass as clean.
func TestDecodePipelineProperty(t *testing.T) {
	rng := sim.NewRNG(44)
	for _, c := range sweepCodes(t) {
		t.Run(codeName(c), func(t *testing.T) {
			for nErr := 0; nErr <= c.T()+2; nErr++ {
				data := randomData(rng, c)
				parity := c.Encode(data)
				origData := bytes.Clone(data)
				origParity := bytes.Clone(parity)
				corruptBits(rng, data, parity, nErr, c.DataBits(), c.ParityBits())
				res, err := c.Decode(data, parity)
				if nErr <= c.T() {
					if err != nil {
						t.Fatalf("nErr=%d <= t=%d rejected: %v", nErr, c.T(), err)
					}
					if res.Corrected != nErr {
						t.Fatalf("nErr=%d: corrected %d", nErr, res.Corrected)
					}
					if !bytes.Equal(data, origData) || !bytes.Equal(parity, origParity) {
						t.Fatalf("nErr=%d: decode did not restore the codeword", nErr)
					}
				} else if err == nil && res.Corrected == 0 {
					t.Fatalf("nErr=%d > t=%d passed as clean", nErr, c.T())
				}
			}
		})
	}
}

// FuzzKernelLockstep drives the table-driven and bit-serial pipelines
// in lockstep on fuzzer-chosen data and error patterns, mirroring the
// harness FuzzLockstep layout: seeds cover the interesting weights,
// the fuzzer explores the rest.
func FuzzKernelLockstep(f *testing.F) {
	code, err := New(15, 4, 512)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0x00}, uint16(0))               // clean word
	f.Add([]byte{0xFF, 0x01}, uint16(1<<12|37))  // one error
	f.Add([]byte{0x5A, 0xC3}, uint16(4<<12|900)) // exactly t
	f.Add([]byte{0x77}, uint16(6<<12|123))       // overload
	f.Fuzz(func(t *testing.T, seed []byte, pattern uint16) {
		data := make([]byte, 64)
		copy(data, seed)

		serial := code.EncodeBitSerial(data)
		parity := code.AppendParity(nil, data)
		if !bytes.Equal(parity, serial) {
			t.Fatalf("encode diverges:\n table: %x\nserial: %x", parity, serial)
		}

		// Flip 0..7 bits at fuzzer-derived positions.
		n := int(pattern >> 12 & 7)
		total := code.DataBits() + code.ParityBits()
		for i := 0; i < n; i++ {
			p := (int(pattern&0x0FFF)*53 + i*131) % total
			if p < code.DataBits() {
				data[p/8] ^= 1 << (p % 8)
			} else {
				q := p - code.DataBits()
				parity[q/8] ^= 1 << (q % 8)
			}
		}

		want := code.SyndromesBitSerial(data, parity)
		got := code.AppendSyndromes(nil, data, parity)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("S_%d = %#x, reference %#x (n=%d)", i+1, got[i], want[i], n)
			}
		}

		res, err := code.Decode(data, parity)
		if err == nil && n > 0 && n <= code.T() && res.Corrected == 0 {
			// Positions may coincide (flips can cancel), so only a
			// non-degenerate pattern must be detected; re-deriving the
			// syndromes tells us whether corruption survived.
			for _, s := range code.SyndromesBitSerial(data, parity) {
				if s != 0 {
					t.Fatalf("corrupted word decoded as clean (n=%d)", n)
				}
			}
		}
	})
}

// pageCode is the 2KB-page BCH-8 code over GF(2^15), with one random
// page of data.
func pageCode(t *testing.T) (*Code, []byte) {
	t.Helper()
	c, err := New(15, 8, 2048*8)
	if err != nil {
		t.Fatal(err)
	}
	return c, randomData(sim.NewRNG(1), c)
}

// TestAppendParityAllocFree pins the table-driven encoder at 0
// allocations when dst has room for the parity.
func TestAppendParityAllocFree(t *testing.T) {
	c, data := pageCode(t)
	dst := make([]byte, 0, c.ParityBytes())
	if allocs := testing.AllocsPerRun(100, func() {
		dst = c.AppendParity(dst[:0], data)
	}); allocs != 0 {
		t.Fatalf("AppendParity: %v allocs/op, want 0", allocs)
	}
}

// TestDecodeAllocFree pins the decoder at 0 allocations on a page
// carrying 8 bit errors. The page is corrupted once, outside the
// measured closure, and copied back before each decode.
func TestDecodeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop the decode scratch at random")
	}
	c, clean := pageCode(t)
	bad, badParity := bytes.Clone(clean), c.Encode(clean)
	corruptBits(sim.NewRNG(2), bad, badParity, 8, c.DataBits(), c.ParityBits())
	data, parity := make([]byte, len(bad)), make([]byte, len(badParity))
	if allocs := testing.AllocsPerRun(100, func() {
		copy(data, bad)
		copy(parity, badParity)
		res, err := c.Decode(data, parity)
		if err != nil || res.Corrected != 8 {
			t.Fatalf("Decode = %+v, %v; want 8 corrected", res, err)
		}
	}); allocs != 0 {
		t.Fatalf("Decode with 8 errors: %v allocs/op, want 0", allocs)
	}
}
