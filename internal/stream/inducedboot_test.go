package stream_test

import (
	"bytes"
	"testing"

	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
	"repro/internal/wire"
)

func ingestInBatches(t *testing.T, acc stream.Ingester, recs []sample.NodeObservation) {
	t.Helper()
	for len(recs) > 0 {
		n := min(10, len(recs))
		if _, err := acc.IngestBatch(recs[:n]); err != nil {
			t.Fatal(err)
		}
		recs = recs[n:]
	}
}

// TestInducedBootstrapRestoreColdCache checkpoints a B=200 induced stream
// at a mid-stream cut, restores it into an accumulator whose weight cache
// starts cold, and continues with the identical tail. The weight cache is
// derived state, so the resumed run must reproduce the uninterrupted run's
// TOPOCKP1 checkpoint frame and TOPOSUM1 sums export byte for byte.
func TestInducedBootstrapRestoreColdCache(t *testing.T) {
	recs, _, g := stream.InducedPaperWalk(t, 8000)
	const cut = 3000
	B := 200
	cfg := stream.Config{K: g.NumCategories(), N: float64(g.N()), Replicates: uncert.Config{B: B, Seed: 4}}
	frames := func(acc *stream.Accumulator) (ckp, sums []byte) {
		t.Helper()
		fs, err := acc.ExportFull()
		if err != nil {
			t.Fatal(err)
		}
		if ckp, err = wire.EncodeCheckpoint(&wire.Checkpoint{Name: "induced", Gen: fs.State.Gen, State: fs}); err != nil {
			t.Fatal(err)
		}
		st, err := acc.Export()
		if err != nil {
			t.Fatal(err)
		}
		if sums, err = wire.Encode(st); err != nil {
			t.Fatal(err)
		}
		return ckp, sums
	}

	whole, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestInBatches(t, whole, recs)

	head, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestInBatches(t, head, recs[:cut])
	ckp, _ := frames(head)
	cp, _, err := wire.DecodeCheckpoint(ckp)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := stream.RestoreAccumulator(cfg, cp.State)
	if err != nil {
		t.Fatal(err)
	}
	// Cold cache: the restored replicates hold at least the head's cached
	// weights (B/2 bytes per distinct node) less memory.
	if cold, warm := tail.ReplicateBytes(), head.ReplicateBytes(); cold > warm-int64(head.Distinct()*B/2) {
		t.Fatalf("restored replicates hold %d bytes, head %d with %d cached nodes", cold, warm, head.Distinct())
	}
	ingestInBatches(t, tail, recs[cut:])

	wantCkp, wantSums := frames(whole)
	gotCkp, gotSums := frames(tail)
	if !bytes.Equal(wantCkp, gotCkp) {
		t.Fatal("resumed run's checkpoint frame differs from the uninterrupted run's")
	}
	if !bytes.Equal(wantSums, gotSums) {
		t.Fatal("resumed run's sums export differs from the uninterrupted run's")
	}
}

// TestReplicateBytes checks the replicate memory gauge of an induced
// bootstrap accumulator: it grows when new nodes enter the weight cache,
// holds still when known nodes are re-drawn, and reads 0 without bootstrap.
func TestReplicateBytes(t *testing.T) {
	recs, _, g := stream.InducedPaperWalk(t, 4000)
	cfg := stream.Config{K: g.NumCategories(), N: float64(g.N()), Replicates: uncert.Config{B: 50, Seed: 2}}
	acc, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	empty := acc.ReplicateBytes()
	if empty <= 0 {
		t.Fatalf("empty replicates report %d bytes", empty)
	}
	ingestInBatches(t, acc, recs)
	grown := acc.ReplicateBytes()
	if grown <= empty+int64(acc.Distinct()*cfg.Replicates.B/2) {
		t.Fatalf("%d bytes after %d distinct nodes, %d empty", grown, acc.Distinct(), empty)
	}
	// Re-draw every node seen so far: no new node, no new edge, no new
	// category pair.
	var redraws []sample.NodeObservation
	for _, r := range recs {
		redraws = append(redraws, sample.NodeObservation{Node: r.Node, Cat: r.Cat, Weight: r.Weight})
	}
	ingestInBatches(t, acc, redraws)
	if again := acc.ReplicateBytes(); again != grown {
		t.Fatalf("re-draws moved replicate bytes from %d to %d", grown, again)
	}

	cfg.Replicates = uncert.Config{}
	plain, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestInBatches(t, plain, recs)
	if n := plain.ReplicateBytes(); n != 0 {
		t.Fatalf("accumulator without bootstrap reports %d replicate bytes", n)
	}
}
