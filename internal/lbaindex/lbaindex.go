// Package lbaindex is a flat open-addressed hash table from int64 keys
// (disk page numbers) to int32 values (page or slab indices). The
// cache metadata on the request path — the FCHT of section 3.1 and the
// DRAM cache's residency index — is one lookup per host page, and a Go
// map spends much of that on its generic machinery. This table keeps
// key, value and occupancy in one 16-byte slot, probes linearly from a
// Fibonacci hash, and deletes by backward shift, so it never leaves
// tombstones behind. Presized from the caller's capacity bound, it
// never grows or allocates in steady state.
package lbaindex

// maxLoadNum/maxLoadDen is the load factor past which Put grows the
// table. New sizes the table so that the hinted population stays at or
// below half full.
const (
	maxLoadNum = 3
	maxLoadDen = 4
)

type slot struct {
	key  int64
	val  int32
	used bool
}

// Table maps int64 keys to int32 values. The zero value is not usable;
// build tables with New. Not safe for concurrent use.
type Table struct {
	slots []slot
	mask  uint64
	shift uint
	n     int
}

// New returns an empty table sized to hold hint entries without
// growing.
func New(hint int) *Table {
	size := 8
	for size < 2*hint {
		size <<= 1
	}
	t := &Table{}
	t.alloc(size)
	return t
}

func (t *Table) alloc(size int) {
	t.slots = make([]slot, size)
	t.mask = uint64(size - 1)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// home returns the slot a key hashes to: the top bits of the key times
// 2^64/φ, which spreads runs of consecutive disk pages evenly.
func (t *Table) home(k int64) uint64 {
	return (uint64(k) * 0x9E3779B97F4A7C15) >> t.shift
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }

// Get returns the value stored under k.
func (t *Table) Get(k int64) (int32, bool) {
	for i := t.home(k); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.used {
			return 0, false
		}
		if s.key == k {
			return s.val, true
		}
	}
}

// Put stores v under k, replacing any previous value.
func (t *Table) Put(k int64, v int32) {
	for i := t.home(k); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.used {
			if (t.n+1)*maxLoadDen > len(t.slots)*maxLoadNum {
				t.grow()
				t.Put(k, v)
				return
			}
			*s = slot{key: k, val: v, used: true}
			t.n++
			return
		}
		if s.key == k {
			s.val = v
			return
		}
	}
}

// grow doubles the table and reinserts every entry.
func (t *Table) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	for i := range old {
		if s := &old[i]; s.used {
			j := t.home(s.key)
			for t.slots[j].used {
				j = (j + 1) & t.mask
			}
			t.slots[j] = *s
		}
	}
}

// Delete removes k and reports whether it was present. The hole it
// leaves is closed by shifting later members of the probe run back,
// so lookups never need tombstones.
func (t *Table) Delete(k int64) bool {
	i := t.home(k)
	for {
		s := &t.slots[i]
		if !s.used {
			return false
		}
		if s.key == k {
			break
		}
		i = (i + 1) & t.mask
	}
	for j := (i + 1) & t.mask; t.slots[j].used; j = (j + 1) & t.mask {
		// The entry at j may fill the hole at i only if its home does
		// not lie cyclically in (i, j]: it would then be unreachable
		// from its home.
		if (j-t.home(t.slots[j].key))&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
	return true
}

// Range calls fn for every entry, in slot order, until fn returns
// false. fn must not mutate the table.
func (t *Table) Range(fn func(k int64, v int32) bool) {
	for i := range t.slots {
		if s := &t.slots[i]; s.used && !fn(s.key, s.val) {
			return
		}
	}
}
