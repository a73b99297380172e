package tables

import (
	"math"
	"testing"
	"testing/quick"

	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

func TestFCHTBasics(t *testing.T) {
	f := NewFCHT(16)
	if _, ok := f.Get(42); ok {
		t.Fatal("empty table reported a hit")
	}
	a := nand.Addr{Block: 1, Slot: 2, Sub: 1}
	f.Put(42, a)
	got, ok := f.Get(42)
	if !ok || got != a {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d", f.Len())
	}
	b := nand.Addr{Block: 9}
	f.Put(42, b)
	if got, _ := f.Get(42); got != b {
		t.Fatal("Put did not replace")
	}
	f.Delete(42)
	if _, ok := f.Get(42); ok || f.Len() != 0 {
		t.Fatal("Delete did not remove")
	}
	f.Delete(42) // deleting absent key is a no-op
}

func TestFCHTProperty(t *testing.T) {
	f := NewFCHT(1)
	check := func(lbas []int64) bool {
		for i, lba := range lbas {
			f.Put(lba, nand.Addr{Block: i})
		}
		for i := len(lbas) - 1; i >= 0; i-- {
			a, ok := f.Get(lbas[i])
			if !ok {
				return false
			}
			// Later duplicate Put wins.
			last := i
			for j := i + 1; j < len(lbas); j++ {
				if lbas[j] == lbas[i] {
					last = j
				}
			}
			if a.Block != last {
				return false
			}
		}
		for _, lba := range lbas {
			f.Delete(lba)
		}
		return f.Len() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFCHTPackRoundTrip(t *testing.T) {
	seen := map[int32]nand.Addr{}
	for _, b := range []int{0, 1, 2, 1000, math.MaxInt32 / 128} {
		for s := 0; s < nand.SlotsPerBlock; s++ {
			for sub := 0; sub < 2; sub++ {
				a := nand.Addr{Block: b, Slot: s, Sub: sub}
				v := pack(a)
				if prev, dup := seen[v]; dup {
					t.Fatalf("%v and %v both pack to %d", prev, a, v)
				}
				seen[v] = a
				if got := unpack(v); got != a {
					t.Fatalf("unpack(pack(%v)) = %v", a, got)
				}
			}
		}
	}
}

func TestFCHTRefusesUnpackableAddress(t *testing.T) {
	for _, a := range []nand.Addr{
		{Block: -1},
		{Block: math.MaxInt32/128 + 1},
		{Slot: -1},
		{Slot: nand.SlotsPerBlock},
		{Sub: -1},
		{Sub: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Put accepted %v", a)
				}
			}()
			NewFCHT(1).Put(1, a)
		}()
	}
}

func TestFPSTInitialState(t *testing.T) {
	f, err := NewFPST(4, 1, wear.MLC, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := f.At(nand.Addr{Block: 3, Slot: 63, Sub: 1})
	if st.Strength != 1 || st.Mode != wear.MLC || st.Valid || st.LBA != InvalidLBA {
		t.Fatalf("initial entry %+v", st)
	}
	if f.Saturate() != 8 {
		t.Fatalf("Saturate = %d", f.Saturate())
	}
}

func TestFPSTPointerStability(t *testing.T) {
	f, err := NewFPST(2, 1, wear.SLC, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := nand.Addr{Block: 1, Slot: 5}
	f.At(a).Valid = true
	f.At(a).LBA = 77
	if st := f.At(a); !st.Valid || st.LBA != 77 {
		t.Fatal("mutations through At lost")
	}
}

func TestFPSTIncAccessSaturates(t *testing.T) {
	f, err := NewFPST(1, 1, wear.MLC, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := nand.Addr{}
	for i := 1; i <= 2; i++ {
		if f.IncAccess(a) {
			t.Fatalf("saturated early at %d", i)
		}
	}
	if !f.IncAccess(a) {
		t.Fatal("did not report saturation on 3rd access")
	}
	if f.IncAccess(a) {
		t.Fatal("reported saturation twice")
	}
	if f.At(a).Access != 3 {
		t.Fatalf("counter overflowed: %d", f.At(a).Access)
	}
}

func TestFPSTConstructorRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		blocks int
		sat    uint32
	}{
		{"zero blocks", 0, 4},
		{"zero saturation", 1, 0},
	} {
		if f, err := NewFPST(tc.blocks, 1, wear.SLC, tc.sat); err == nil || f != nil {
			t.Fatalf("%s: want error, got (%v, %v)", tc.name, f, err)
		}
	}
}

func TestFBSTWearOutFormula(t *testing.T) {
	f, err := NewFBST(3, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	st := f.At(1)
	st.Erases = 100
	st.TotalECC = 30
	st.TotalSLC = 4
	// wear = 100 + 2*30 + 20*4 = 240
	if got := f.WearOut(1); got != 240 {
		t.Fatalf("WearOut = %v, want 240", got)
	}
	if f.WearOut(0) != 0 {
		t.Fatal("fresh block has non-zero wear")
	}
	if f.Blocks() != 3 {
		t.Fatalf("Blocks = %d", f.Blocks())
	}
}

func TestFBSTConstructorRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		blocks int
		k1, k2 float64
	}{
		{"zero blocks", 0, 1, 2},
		{"zero K1", 1, 0, 2},
		{"K2 not above K1", 1, 3, 2},
	} {
		if f, err := NewFBST(tc.blocks, tc.k1, tc.k2); err == nil || f != nil {
			t.Fatalf("%s: want error, got (%v, %v)", tc.name, f, err)
		}
	}
}

func TestFGSTAverages(t *testing.T) {
	var g FGST
	if g.MissRate() != 0 {
		t.Fatal("miss rate before any access")
	}
	if g.AvgHitLatency(7) != 7 || g.AvgMissPenalty(9) != 9 {
		t.Fatal("defaults not honoured")
	}
	g.RecordHit(100 * sim.Microsecond)
	g.RecordHit(300 * sim.Microsecond)
	g.RecordMiss(8 * sim.Millisecond)
	if g.MissRate() != 1.0/3 {
		t.Fatalf("miss rate %v", g.MissRate())
	}
	if g.AvgHitLatency(0) != 200*sim.Microsecond {
		t.Fatalf("avg hit %v", g.AvgHitLatency(0))
	}
	if g.AvgMissPenalty(0) != 8*sim.Millisecond {
		t.Fatalf("avg miss %v", g.AvgMissPenalty(0))
	}
}
