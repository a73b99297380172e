package core

import (
	"fmt"
	"math/bits"

	"flashdc/internal/nand"
)

// Region block lists. Each region threads its active blocks through
// two intrusive int32-linked lists in blockMeta, the layout the DRAM
// cache uses for its recency list: the LRU (prev/next) and the greedy
// victim index (bprev/bnext), which buckets the same blocks by their
// invalid-page count (consumed - valid). A non-empty bitset over the
// buckets finds the most-invalid count with one bits.Len64, and the
// LRU stamps break ties inside a bucket: every LRU insertion happens
// at the front with a fresh stamp, so stamps strictly decrease from
// the front to the back and the minimum stamp is the block a
// back-to-front LRU scan meets first. Stamps and buckets are derived
// state — rebuilt by indexRegion, never checkpointed.

// noBlock is the null block index of the region lists.
const noBlock = int32(-1)

// invalidBuckets spans every invalid-page count a block can reach, 0
// through an all-MLC block's 2*SlotsPerBlock pages.
const invalidBuckets = 2*nand.SlotsPerBlock + 1

// onLRU reports whether the block is linked into its region's LRU.
func (m *blockMeta) onLRU() bool { return m.stamp != 0 }

// invalid is the block's invalid-page count, its victim-index bucket.
func (m *blockMeta) invalid() int { return m.consumed - m.valid }

// linkFront puts block b at the front of r's LRU with a fresh stamp.
func (c *Cache) linkFront(r *region, b int) {
	m := &c.meta[b]
	r.stamp++
	m.stamp = r.stamp
	m.prev = noBlock
	m.next = r.head
	if r.head != noBlock {
		c.meta[r.head].prev = int32(b)
	} else {
		r.tail = int32(b)
	}
	r.head = int32(b)
	r.active++
}

// relinkLRU rebuilds r's LRU from a front-to-back block list, as a
// restore does, leaving the stamps and the victim index to
// indexRegion.
func (c *Cache) relinkLRU(r *region, lru []int) {
	r.head, r.tail, r.active = noBlock, noBlock, 0
	for _, b := range lru {
		m := &c.meta[b]
		m.next = noBlock
		m.prev = r.tail
		if r.tail != noBlock {
			c.meta[r.tail].next = int32(b)
		} else {
			r.head = int32(b)
		}
		r.tail = int32(b)
		r.active++
	}
}

// unlink takes block b off r's LRU.
func (c *Cache) unlink(r *region, b int) {
	m := &c.meta[b]
	if m.prev != noBlock {
		c.meta[m.prev].next = m.next
	} else {
		r.head = m.next
	}
	if m.next != noBlock {
		c.meta[m.next].prev = m.prev
	} else {
		r.tail = m.prev
	}
	m.stamp = 0
	r.active--
}

// bucketAdd files block b under its invalid count in r's victim index.
func (c *Cache) bucketAdd(r *region, b int) {
	m := &c.meta[b]
	k := m.invalid()
	m.bprev = noBlock
	m.bnext = r.bucket[k]
	if m.bnext != noBlock {
		c.meta[m.bnext].bprev = int32(b)
	}
	r.bucket[k] = int32(b)
	r.nonEmpty[k/64] |= 1 << (k % 64)
}

// bucketDel removes block b from r's victim index. It must run while
// b's counters still give the bucket it was filed under.
func (c *Cache) bucketDel(r *region, b int) {
	m := &c.meta[b]
	k := m.invalid()
	if m.bprev != noBlock {
		c.meta[m.bprev].bnext = m.bnext
	} else {
		r.bucket[k] = m.bnext
		if m.bnext == noBlock {
			r.nonEmpty[k/64] &^= 1 << (k % 64)
		}
	}
	if m.bnext != noBlock {
		c.meta[m.bnext].bprev = m.bprev
	}
}

// indexRegion rebuilds r's stamps and victim index from its LRU order,
// stamping back to front so the stamps decrease toward the back.
func (c *Cache) indexRegion(r *region) {
	for k := range r.bucket {
		r.bucket[k] = noBlock
	}
	clear(r.nonEmpty[:])
	r.stamp = 0
	for b := r.tail; b != noBlock; b = c.meta[b].prev {
		r.stamp++
		c.meta[b].stamp = r.stamp
		c.bucketAdd(r, int(b))
	}
}

// mostInvalid returns the highest invalid-page count among r's active
// blocks, or -1 when its LRU is empty.
func (r *region) mostInvalid() int {
	for w := len(r.nonEmpty) - 1; w >= 0; w-- {
		if x := r.nonEmpty[w]; x != 0 {
			return w*64 + bits.Len64(x) - 1
		}
	}
	return -1
}

// oldestWith returns the least recently used active block of r with
// exactly k invalid pages; bucket k must be non-empty.
func (c *Cache) oldestWith(r *region, k int) int {
	best := r.bucket[k]
	for b := c.meta[best].bnext; b != noBlock; b = c.meta[b].bnext {
		if c.meta[b].stamp < c.meta[best].stamp {
			best = b
		}
	}
	return int(best)
}

// checkIndex audits r's LRU links, stamps and victim index: the LRU is
// doubly linked with strictly decreasing stamps from front to back,
// every LRU member sits in bucket consumed-valid and in no other, and
// the non-empty bitset matches the buckets.
func (c *Cache) checkIndex(r *region) error {
	n := 0
	prev := noBlock
	for b := r.head; b != noBlock; b = c.meta[b].next {
		m := &c.meta[b]
		if n++; n > len(c.meta) {
			return fmt.Errorf("core: integrity: region %d LRU does not terminate", r.id)
		}
		if m.prev != prev {
			return fmt.Errorf("core: integrity: region %d LRU block %d links back to %d, want %d", r.id, b, m.prev, prev)
		}
		if !m.onLRU() || (prev != noBlock && m.stamp >= c.meta[prev].stamp) {
			return fmt.Errorf("core: integrity: region %d LRU stamps do not strictly decrease at block %d", r.id, b)
		}
		prev = b
	}
	if prev != r.tail || n != r.active {
		return fmt.Errorf("core: integrity: region %d LRU walks %d blocks to %d, records %d ending at %d",
			r.id, n, prev, r.active, r.tail)
	}
	// seen[b] is 1 + the bucket block b was found in.
	seen := make([]int, len(c.meta))
	filed := 0
	for k := range r.bucket {
		prev := noBlock
		for b := r.bucket[k]; b != noBlock; b = c.meta[b].bnext {
			m := &c.meta[b]
			if seen[b] != 0 {
				return fmt.Errorf("core: integrity: block %d filed in region %d buckets %d and %d", b, r.id, seen[b]-1, k)
			}
			seen[b] = k + 1
			if m.bprev != prev {
				return fmt.Errorf("core: integrity: region %d bucket %d block %d links back to %d, want %d", r.id, k, b, m.bprev, prev)
			}
			if !m.onLRU() || m.region != r.id {
				return fmt.Errorf("core: integrity: block %d in region %d bucket %d is not on its LRU", b, r.id, k)
			}
			if m.invalid() != k {
				return fmt.Errorf("core: integrity: block %d with %d invalid pages filed in region %d bucket %d", b, m.invalid(), r.id, k)
			}
			prev = b
			filed++
		}
		if set := r.nonEmpty[k/64]&(1<<(k%64)) != 0; set != (r.bucket[k] != noBlock) {
			return fmt.Errorf("core: integrity: region %d bucket %d non-empty bit is %v", r.id, k, set)
		}
	}
	if filed != r.active {
		return fmt.Errorf("core: integrity: region %d buckets file %d blocks, LRU holds %d", r.id, filed, r.active)
	}
	return nil
}
