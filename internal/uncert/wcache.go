package uncert

// weightChunkBytes is the size of one weight-cache chunk.
const weightChunkBytes = 64 << 10

// weightIndexBytesPerNode estimates the weight cache's index cost per node:
// an 8-byte (node, slot) map entry plus control bytes, at the map's average
// load after doubling.
const weightIndexBytesPerNode = 16

// weightEscape is the 4-bit code of a weight the cache cannot hold: Poisson(1)
// weights run 0…20, and the ≥ 15 tail (probability ≈ 3·10⁻¹³ per
// replicate) is recomputed by hashing when the row is decoded.
const weightEscape = 15

// rowEscapes flags an index entry whose row holds a weightEscape code.
const rowEscapes = 1 << 31

// weightCache holds the B Poisson(1) replicate weights of every node it has
// been asked for, packed two to a byte (replicate r in the low nibble of
// byte r/2 when r is even, the high one when odd). Weights are a pure
// function of (Seed, node, replicate), so the cache is derived state: it is
// filled on first use, never copied, merged or serialized, and a restored
// Replicates rebuilds it lazily.
//
// Layout: node rows of ⌈B/2⌉ bytes packed into fixed 64 KiB chunks,
// addressed by a map from node id to row slot. Neither the map nor the
// chunks hold Go pointers per node, so the GC does not trace them, and full
// chunks never move, so growth leaves no garbage behind.
type weightCache struct {
	seed     uint64
	b        int
	rowBytes int
	perChunk uint32 // node rows per chunk
	// index maps a node to its row slot, with rowEscapes set when the row
	// holds an escaped weight.
	index  map[int32]uint32
	chunks [][]uint8
	// buf receives the dense decoding of one row.
	buf []uint8
}

// nibblePairs[x] is the dense decoding of packed byte x: its low and high
// replicate codes.
var nibblePairs = func() (t [256][2]uint8) {
	for x := range t {
		t[x] = [2]uint8{uint8(x) & 15, uint8(x) >> 4}
	}
	return t
}()

func newWeightCache(cfg Config) weightCache {
	rowBytes := (cfg.B + 1) / 2
	return weightCache{
		seed:     cfg.Seed,
		b:        cfg.B,
		rowBytes: rowBytes,
		perChunk: uint32(max(1, weightChunkBytes/rowBytes)),
		buf:      make([]uint8, 2*rowBytes),
	}
}

// dense returns node's B replicate weights, decoded into the cache's
// scratch buffer (valid until the next call), hashing them into a new row
// on first use.
func (wc *weightCache) dense(node int32) []uint8 {
	e, ok := wc.index[node]
	if !ok {
		e = wc.fill(node)
	}
	unpack(wc.buf, wc.row(e&^rowEscapes))
	buf := wc.buf[:wc.b]
	if e&rowEscapes != 0 {
		h := nodeHash(wc.seed, node)
		for r, c := range buf {
			if c == weightEscape {
				buf[r] = poissonAt(h, r)
			}
		}
	}
	return buf
}

// fill hashes node's weights into a new row and returns its index entry.
func (wc *weightCache) fill(node int32) uint32 {
	if wc.index == nil {
		wc.index = make(map[int32]uint32)
	}
	slot := uint32(len(wc.index))
	if slot%wc.perChunk == 0 {
		wc.chunks = append(wc.chunks, make([]uint8, int(wc.perChunk)*wc.rowBytes))
	}
	ws := wc.buf[:wc.b]
	h := nodeHash(wc.seed, node)
	for r := range ws {
		ws[r] = poissonAt(h, r)
	}
	e := slot
	if pack(wc.row(slot), ws) {
		e |= rowEscapes
	}
	wc.index[node] = e
	return e
}

func (wc *weightCache) row(slot uint32) []uint8 {
	off := int(slot%wc.perChunk) * wc.rowBytes
	return wc.chunks[slot/wc.perChunk][off : off+wc.rowBytes : off+wc.rowBytes]
}

// pack stores the dense weights ws into a zeroed packed row and reports
// whether any weight took the escape code.
func pack(row, ws []uint8) (escapes bool) {
	for r, w := range ws {
		if w >= weightEscape {
			w, escapes = weightEscape, true
		}
		row[r>>1] |= w << (uint(r&1) << 2)
	}
	return escapes
}

// unpack decodes a packed row into dst, which holds 2·len(row) codes.
func unpack(dst, row []uint8) {
	for i, x := range row {
		p := &nibblePairs[x]
		dst[2*i], dst[2*i+1] = p[0], p[1]
	}
}

// nodes returns the number of cached nodes.
func (wc *weightCache) nodes() int { return len(wc.index) }

// bytes returns the cache's memory: whole chunks, the decode buffer, and
// the estimated index.
func (wc *weightCache) bytes() int64 {
	return int64(len(wc.chunks))*int64(wc.perChunk)*int64(wc.rowBytes) + int64(len(wc.buf)) +
		int64(len(wc.index))*weightIndexBytesPerNode
}
