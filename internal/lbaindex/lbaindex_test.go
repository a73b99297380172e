package lbaindex

import (
	"encoding/binary"
	"testing"

	"flashdc/internal/sim"
)

// check diffs the table against the reference map: length, every
// reference entry by Get, and every table entry by Range.
func check(t testing.TB, tb *Table, ref map[int64]int32) {
	t.Helper()
	if tb.Len() != len(ref) {
		t.Fatalf("Len %d, reference holds %d", tb.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tb.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, got, ok, want)
		}
	}
	seen := 0
	tb.Range(func(k int64, v int32) bool {
		seen++
		if want, ok := ref[k]; !ok || want != v {
			t.Fatalf("Range yields (%d, %d), reference has (%d, %v)", k, v, want, ok)
		}
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range yields %d entries, reference holds %d", seen, len(ref))
	}
}

// op applies one operation to both the table and the reference.
func op(t testing.TB, tb *Table, ref map[int64]int32, kind byte, k int64, v int32) {
	t.Helper()
	switch kind % 3 {
	case 0, 1:
		tb.Put(k, v)
		ref[k] = v
	case 2:
		_, want := ref[k]
		if got := tb.Delete(k); got != want {
			t.Fatalf("Delete(%d) = %v, reference says %v", k, got, want)
		}
		delete(ref, k)
	}
	if _, ok := tb.Get(k); ok != (kind%3 != 2) {
		t.Fatalf("Get(%d) present=%v after op %d", k, ok, kind%3)
	}
}

func TestDifferentialChurn(t *testing.T) {
	// A small key space keeps the table dense and makes deletes hit
	// often, so backward shifts run across long probe runs.
	rng := sim.NewRNG(1)
	tb := New(256)
	ref := map[int64]int32{}
	for i := 0; i < 200_000; i++ {
		k := int64(rng.Intn(400))
		kind := byte(rng.Intn(3))
		if i%2 == 0 {
			kind = 2 // delete-heavy
		}
		op(t, tb, ref, kind, k, int32(rng.Intn(1<<30)))
		if i%10_000 == 0 {
			check(t, tb, ref)
		}
	}
	check(t, tb, ref)
}

func TestGrowth(t *testing.T) {
	tb := New(0)
	ref := map[int64]int32{}
	for i := int64(0); i < 5000; i++ {
		// Negative, huge and sequential keys all hash through the
		// same multiply.
		k := i*7919 - 1<<40
		tb.Put(k, int32(i))
		ref[k] = int32(i)
	}
	check(t, tb, ref)
	if len(tb.slots) > 4*len(ref) {
		t.Fatalf("table has %d slots for %d entries", len(tb.slots), len(ref))
	}
	for k := range ref {
		if k%3 == 0 {
			tb.Delete(k)
			delete(ref, k)
		}
	}
	check(t, tb, ref)
}

func TestPresizedNeverGrows(t *testing.T) {
	const n = 1000
	tb := New(n)
	size := len(tb.slots)
	for i := int64(0); i < n; i++ {
		tb.Put(i, int32(i))
	}
	for round := 0; round < 10; round++ {
		for i := int64(0); i < n; i++ {
			tb.Delete(i + int64(round)*n)
			tb.Put(i+int64(round+1)*n, int32(i))
		}
	}
	if len(tb.slots) != size || tb.Len() != n {
		t.Fatalf("presized table moved from %d to %d slots (%d entries)", size, len(tb.slots), tb.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tb.Delete(11 * n)
		tb.Put(11*n, 1)
		tb.Get(11 * n)
	}); allocs != 0 {
		t.Fatalf("steady-state churn allocates %.1f times per op", allocs)
	}
}

func TestProbeWrapAround(t *testing.T) {
	tb := New(0) // 8 slots
	last := tb.mask
	// Collect keys that hash to the final slot, so their probe run
	// wraps to the front of the table.
	var keys []int64
	for k := int64(0); len(keys) < 4; k++ {
		if tb.home(k) == last {
			keys = append(keys, k)
		}
	}
	ref := map[int64]int32{}
	for i, k := range keys {
		tb.Put(k, int32(i))
		ref[k] = int32(i)
	}
	if len(tb.slots) != 8 {
		t.Fatalf("table grew to %d slots; the wrap is not exercised", len(tb.slots))
	}
	if !tb.slots[0].used || !tb.slots[2].used {
		t.Fatal("colliding keys did not wrap to the front of the table")
	}
	check(t, tb, ref)
	// Deleting the run's head must shift the wrapped members back
	// across the table end.
	tb.Delete(keys[0])
	delete(ref, keys[0])
	check(t, tb, ref)
	if !tb.slots[last].used || tb.slots[2].used {
		t.Fatal("backward shift did not close the hole across the wrap")
	}
}

// FuzzTable drives the table and a reference map with an operation
// stream decoded from the input: each 3-byte record picks an
// operation, a key from a small space (so deletes hit and probe runs
// collide) and a value.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 1, 0})
	f.Add([]byte{0, 7, 1, 0, 15, 2, 2, 7, 0, 0, 23, 3, 2, 15, 0})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0102030405060708))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := New(int(len(data) % 5))
		ref := map[int64]int32{}
		for len(data) >= 3 {
			k := int64(data[1]) - 128
			if data[0]&0x80 != 0 {
				k <<= 40
			}
			op(t, tb, ref, data[0], k, int32(data[2]))
			data = data[3:]
		}
		check(t, tb, ref)
	})
}
