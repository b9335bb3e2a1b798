package stream

import (
	"math/bits"
	"sync"
	"unsafe"
)

// The EpochAccumulator's node directory, built so that the GC has nothing
// per node to trace. Each stripe keeps an open-addressed index of
// (node, position) pairs, a slab of inline dirEntry values, and two arenas
// holding the neighbor-category lists. All four store pointer-free element
// types, the slab and arenas in fixed-size chunks, so the GC marks one
// pointer per chunk (about one per thousand nodes) and never scans an
// element. Full chunks are never copied or freed, so growth leaves almost
// no garbage behind, and an entry's slab position is a handle that stays
// valid for the accumulator's lifetime.

// stripeBits is log2(epochStripes): a node's hash picks its stripe with the
// low stripeBits bits and its home slot in the stripe's index with the rest.
const stripeBits = 6

// dirHash is a full-avalanche integer hash (the 32-bit "lowbias" mix), so
// adjacent crawler id ranges spread evenly over stripes and index slots.
func dirHash(node int32) uint32 {
	h := uint32(node)
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return h
}

// dirEntry is one published node: the per-node constants every epoch must
// agree on (cat and weight, fixed once published), the flushed multiplicity,
// and the reconciled star data — the degree inline, the neighbor-category
// list as the run of starLen&^starSeenBit elements at position starOff of
// the stripe's arenas. The type must stay pointer-free
// (TestEpochDirectoryHasNoPointers).
type dirEntry struct {
	node    int32
	cat     int32
	mult    float64
	weight  float64
	deg     float64
	starOff uint32
	// starLen is the run length, with starSeenBit set once the node's star
	// data arrived.
	starLen uint32
}

const starSeenBit = 1 << 31

func (e *dirEntry) starSeen() bool { return e.starLen&starSeenBit != 0 }

// indexSlot maps a node to its entry: ref is 1 + the entry's slab position,
// and 0 marks an empty slot.
type indexSlot struct {
	node int32
	ref  uint32
}

// nodeStripe is one lock-striped part of the node directory; everything
// below mu is guarded by it. Its size is a whole number of cache lines, so
// adjacent stripes' locks never share one.
//
// Star runs are append-only: a list of a new length goes to a fresh run and
// the old run is abandoned, never rewritten, so a run handed out as a capped
// subslice stays valid after the lock is released. The waste is bounded: a
// node's list only grows, to at most K entries, and since
// sample.ReconcileStarData only ever replaces an empty list, which takes no
// run, no run is abandoned in practice.
type nodeStripe struct {
	mu sync.Mutex
	// index is open-addressed and linearly probed; its length is a power
	// of two and its load stays at most maxLoadNum/maxLoadDen.
	index   []indexSlot
	entries chunked[dirEntry]
	nbrCat  chunked[int32]
	nbrCnt  chunked[float64]
}

const (
	// The index doubles before an insert would take its load past 3/4.
	maxLoadNum, maxLoadDen = 3, 4
	// initSlots is each stripe's index length in a new accumulator.
	initSlots = 8
	// slabShift sizes the slab's chunks: 1024 entries, 40 KiB.
	slabShift = 10
)

// init prepares an empty stripe whose star lists hold at most k entries.
func (st *nodeStripe) init(k int) {
	st.index = make([]indexSlot, initSlots)
	st.entries.shift = slabShift
	// Arena chunks hold at least 4096 entries, and always a whole list.
	st.nbrCat.shift = uint32(max(12, bits.Len(uint(k))))
	st.nbrCnt.shift = st.nbrCat.shift
}

// find returns the index slot holding node and its entry's ref, or the
// empty slot that ends node's probe sequence and ref 0.
func (st *nodeStripe) find(node int32) (slot int, ref uint32) {
	mask := len(st.index) - 1
	for i := int(dirHash(node)>>stripeBits) & mask; ; i = (i + 1) & mask {
		if s := st.index[i]; s.ref == 0 || s.node == node {
			return i, s.ref
		}
	}
}

// entry returns the entry behind a ref. The pointer is valid until the next
// insert into the stripe.
func (st *nodeStripe) entry(ref uint32) *dirEntry { return st.entries.at(ref - 1) }

// insert publishes e, whose node is absent, at the empty index slot find
// returned for it. When the insert takes the index past its maximum load,
// the index doubles and e is placed in the new one.
func (st *nodeStripe) insert(slot int, e dirEntry) {
	ref := st.entries.add(e) + 1 // the slab is dense: ref counts its entries
	if int(ref)*maxLoadDen > len(st.index)*maxLoadNum {
		old := st.index
		st.index = make([]indexSlot, 2*len(old))
		for _, s := range old {
			if s.ref != 0 {
				j, _ := st.find(s.node)
				st.index[j] = s
			}
		}
		slot, _ = st.find(e.node)
	}
	st.index[slot] = indexSlot{node: e.node, ref: ref}
}

// star returns e's neighbor-category run as capped subslices of the arenas,
// valid after the stripe lock is released.
func (st *nodeStripe) star(e *dirEntry) ([]int32, []float64) {
	n := e.starLen &^ starSeenBit
	return st.nbrCat.run(e.starOff, n), st.nbrCnt.run(e.starOff, n)
}

// setStar records star data on e (an entry of the stripe, or one about to be
// inserted): the degree inline, and the list as a fresh run unless e already
// holds a seen list of the same length, which reconciliation has checked is
// identical.
func (st *nodeStripe) setStar(e *dirEntry, deg float64, cat []int32, cnt []float64) {
	e.deg = deg
	if len(cat) > 0 && (!e.starSeen() || len(cat) != int(e.starLen&^starSeenBit)) {
		e.starOff = st.nbrCat.add(cat...)
		st.nbrCnt.add(cnt...)
	}
	e.starLen = uint32(len(cat)) | starSeenBit
}

// bytes returns the memory the stripe holds.
func (st *nodeStripe) bytes() int64 {
	return int64(len(st.index))*int64(unsafe.Sizeof(indexSlot{})) +
		st.entries.bytes() + st.nbrCat.bytes() + st.nbrCnt.bytes()
}

// chunked is an append-only sequence of T stored in chunks of 1<<shift
// elements. Only the first chunk is ever copied, while it doubles up to its
// full size so that a small directory stays small; later chunks start at
// full size, and no element moves once its chunk is full. A run handed out
// as a capped subslice therefore stays valid and can never be written
// through. A run never straddles two chunks: one that does not fit in the
// last chunk's remainder starts the next chunk. Positions are uint32: a
// stripe's arenas would need 2³² list entries, 48 GiB, to overflow them.
type chunked[T any] struct {
	chunks [][]T
	// n is the next free position, counting the remainders runs skipped.
	n     uint32
	shift uint32
}

// add appends run, at most 1<<shift elements, and returns its position.
func (a *chunked[T]) add(run ...T) uint32 {
	size := uint32(1) << a.shift
	if a.n&(size-1)+uint32(len(run)) > size {
		a.n = (a.n + size - 1) &^ (size - 1)
	}
	pos := a.n
	ci, off := int(pos>>a.shift), int(pos&(size-1))
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, nil)
	}
	c := a.chunks[ci]
	if off+len(run) > cap(c) {
		n := int(size)
		if ci == 0 {
			n = min(max(2*cap(c), off+len(run), 8), n)
		}
		grown := make([]T, off, n)
		copy(grown, c)
		c = grown
	}
	a.chunks[ci] = append(c[:off], run...)
	a.n += uint32(len(run))
	return pos
}

// at returns the element at position pos.
func (a *chunked[T]) at(pos uint32) *T {
	return &a.chunks[pos>>a.shift][pos&(1<<a.shift-1)]
}

// run returns the n elements from position pos as a capped subslice.
func (a *chunked[T]) run(pos, n uint32) []T {
	if n == 0 {
		return nil
	}
	c := a.chunks[pos>>a.shift]
	off := pos & (1<<a.shift - 1)
	return c[off : off+n : off+n]
}

// bytes returns the memory the chunks hold.
func (a *chunked[T]) bytes() int64 {
	var n int
	for _, c := range a.chunks {
		n += cap(c)
	}
	var zero T
	return int64(n) * int64(unsafe.Sizeof(zero))
}
