package uncert

import (
	"slices"
	"testing"
)

// TestWeightCacheMatchesPoissonWeight checks every cached weight against
// PoissonWeight across chunk boundaries (B=200 packs 655 nodes per 64 KiB
// chunk), for negative ids and an odd B too. All nodes are cached before
// any is read back, so rows in early chunks are read after later chunks
// were allocated. A row larger than a chunk falls back to one node per
// chunk.
func TestWeightCacheMatchesPoissonWeight(t *testing.T) {
	for _, tc := range []struct {
		b     int
		nodes []int32
	}{
		{200, span(-700, 800)},
		{7, span(-20, 20)},
		{140_001, []int32{-3, 0, 1 << 30}},
	} {
		const seed = 77
		wc := newWeightCache(Config{B: tc.b, Seed: seed})
		for _, v := range tc.nodes {
			wc.dense(v)
		}
		for pass := 0; pass < 2; pass++ {
			if wc.nodes() != len(tc.nodes) {
				t.Fatalf("B=%d: %d cached nodes, want %d", tc.b, wc.nodes(), len(tc.nodes))
			}
			for _, v := range tc.nodes {
				for r, c := range wc.dense(v) {
					if want := PoissonWeight(seed, v, r); float64(c) != want {
						t.Fatalf("B=%d node %d replicate %d: cached %d, PoissonWeight %v", tc.b, v, r, c, want)
					}
				}
			}
		}
	}
}

// TestWeightCacheEscape covers the 4-bit escape code. Weights ≥ 15 occur
// with probability ≈ 3·10⁻¹³ per replicate, so they are injected. pack must
// store 15…20 as the escape code without touching the neighbouring
// replicate, and report it. Then every cached row is overwritten with
// escape codes and flagged, which forces every decode to recompute by
// hashing: replicates fed the same induced events must come out
// bit-identical to an unpoisoned twin.
func TestWeightCacheEscape(t *testing.T) {
	for w := uint8(0); w <= 20; w++ {
		for r := 0; r < 2; r++ {
			ws := []uint8{0, 0}
			ws[r] = w
			row := []uint8{0}
			esc := pack(row, ws)
			dst := make([]uint8, 2)
			unpack(dst, row)
			if dst[r] != min(w, 15) || dst[1-r] != 0 || esc != (w >= 15) {
				t.Fatalf("weight %d in replicate %d packs to %v (escape %v)", w, r, dst, esc)
			}
		}
	}
	cfg := Config{B: 33, Seed: 12}
	plain, err := NewReplicates(4, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := NewReplicates(4, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for v := int32(0); v < n; v++ {
		poisoned.wc.dense(v)
		poisoned.wc.index[v] |= rowEscapes
	}
	for _, chunk := range poisoned.wc.chunks {
		for i := range chunk {
			chunk[i] = weightEscape<<4 | weightEscape
		}
	}
	for _, rs := range []*Replicates{plain, poisoned} {
		for v := int32(0); v < n; v++ {
			rs.AddDraw(v, v%4, 1+float64(v%3), 0)
			for p := int32(0); p < v; p += 7 {
				rs.AddEdgeMass(v, p, v%4, p%4, 1/float64(1+v+p))
			}
		}
		for v := int32(0); v < n; v += 3 {
			rs.AddDraw(v, v%4, 1+float64(v%3), 1)
		}
	}
	a, b := plain.Raw(), poisoned.Raw()
	if len(a.Pairs) == 0 || len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("%d vs %d replicate pairs", len(a.Pairs), len(b.Pairs))
	}
	for key, va := range a.Pairs {
		if !slices.Equal(va, b.Pairs[key]) {
			t.Fatalf("pair %v: escaped reads %v, cached %v", key, b.Pairs[key], va)
		}
	}
	if !slices.Equal(a.WithinNum, b.WithinNum) || !slices.Equal(a.Coll, b.Coll) || !slices.Equal(a.Rew2, b.Rew2) {
		t.Fatal("escaped reads changed the replicate sums")
	}
}

func span(lo, hi int32) []int32 {
	var out []int32
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// TestWeightCacheIsDerivedState pins where the induced weight cache lives:
// ingest fills it, every copy path (CopyFrom into an export shell, Clone,
// Merge, the Raw round trip) starts cold, Reset and CopyFrom keep the
// destination's own cache, and star replicates never fill one.
func TestWeightCacheIsDerivedState(t *testing.T) {
	cfg := Config{B: 64, Seed: 5}
	rs, err := NewReplicates(3, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 40; v++ {
		rs.AddDraw(v, v%3, 1, 0)
		if v > 0 {
			rs.AddEdgeMass(v, v-1, v%3, (v-1)%3, 1)
		}
	}
	if rs.CachedNodes() != 40 {
		t.Fatalf("ingest cached %d nodes, want 40", rs.CachedNodes())
	}
	shell, err := NewReplicates(3, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shell.ReservePairs(rs.PairCount())
	if err := shell.CopyFrom(rs); err != nil {
		t.Fatal(err)
	}
	merged, err := NewReplicates(3, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(rs); err != nil {
		t.Fatal(err)
	}
	raw, err := NewReplicatesFromRaw(rs.Raw())
	if err != nil {
		t.Fatal(err)
	}
	for name, cp := range map[string]*Replicates{"CopyFrom shell": shell, "Clone": rs.Clone(), "Merge": merged, "Raw": raw} {
		if n := cp.CachedNodes(); n != 0 {
			t.Errorf("%s carried %d cached nodes", name, n)
		}
	}
	rs.Reset()
	if err := rs.CopyFrom(shell); err != nil {
		t.Fatal(err)
	}
	if rs.CachedNodes() != 40 {
		t.Errorf("Reset and CopyFrom left %d cached nodes, want 40", rs.CachedNodes())
	}

	star, err := NewReplicates(3, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 40; v++ {
		star.AddDraw(v, v%3, 1, 0)
		star.AddStar(v, v%3, 1, 1, 2, []int32{(v + 1) % 3}, []float64{2})
	}
	if star.CachedNodes() != 0 {
		t.Errorf("star replicates cached %d nodes", star.CachedNodes())
	}
}
