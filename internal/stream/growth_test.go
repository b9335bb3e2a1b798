package stream_test

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/wire"
)

// growthRecord is one draw of node v by writer w in the directory-growth
// race. Star data is a function of v alone, so every re-draw agrees with
// every other; kind picks how much of it the record carries: 0 none (a
// bare draw), 1 the degree only, 2 the counts only (a lower bound on the
// degree when they sum below it), 3 both. Constants are contested on some
// nodes: writers split into two factions that give every fifth node
// different categories and every seventh node different weights.
func growthRecord(w int, v int32, kind int) sample.NodeObservation {
	const k = 6
	faction := int32(w % 2)
	rec := sample.NodeObservation{Node: v, Cat: v % k, Weight: float64(1 + v%3)}
	if v%5 == 0 {
		rec.Cat = (v + faction) % k
	}
	if v%7 == 0 {
		rec.Weight += 10 * float64(faction)
	}
	deg := float64(3 + v%4)
	if kind&1 != 0 {
		rec.Deg = deg
	}
	if kind&2 != 0 {
		// Two neighbor categories whose counts sum to deg, or to deg−1
		// on odd nodes (a partial list: the degree upgrades later).
		rec.NbrCat = []int32{v % k, (v + 1) % k}
		if rec.NbrCat[0] > rec.NbrCat[1] {
			rec.NbrCat[0], rec.NbrCat[1] = rec.NbrCat[1], rec.NbrCat[0]
		}
		rec.NbrCnt = []float64{1, deg - 1 - float64(v%2)}
	}
	return rec
}

// TestEpochDirectoryGrowthRace races eight Locals on an empty epoch
// accumulator over overlapping node ranges large enough that every stripe's
// index doubles several times, and its slab and arenas grow, while other
// writers hold open epochs with entry refs into it. The stream mixes bare draws followed by late star
// data, partial star data completed later (degree-only or counts-only
// records, so a list lands in the arena after the entry exists), and
// conflicting constants that drop records at flush. Whatever the
// interleaving, the records the flushes report applied must be exactly the
// accepted records that agree with each node's winning constants, a
// single-lock accumulator fed those records must agree with the epoch
// accumulator (estimates to ≤ 1e-9, node directory equal), and checkpoint →
// restore → checkpoint must reproduce the TOPOCKP1 frame byte for byte.
// Run under -race.
func TestEpochDirectoryGrowthRace(t *testing.T) {
	const (
		writers  = 8
		span     = 24_000 // node ids [0, span): ≈375 per stripe
		perRange = span / 2
		passes   = 2
	)
	cfg := stream.Config{K: 6, Star: true, N: span}
	ea, err := stream.NewEpochAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make([][]sample.NodeObservation, writers)
	applied := make([]int, writers)
	dropped := make([]int, writers)
	// Every writer's first epoch opens with node 0, contested in category
	// and weight, and no writer flushes before all first epochs are full.
	// Each writer then validated node 0 against an empty directory, so the
	// writers of whichever faction flushes it second must drop it.
	var full, wg sync.WaitGroup
	full.Add(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 99))
			// Writer w covers span/2 ids from its own offset, wrapping, so
			// each id is shared by four writers of mixed factions.
			ids := make([]int32, 1, 1+passes*perRange)
			for p := 0; p < passes; p++ {
				for i := 0; i < perRange; i++ {
					ids = append(ids, int32((w*span/writers+i)%span))
				}
			}
			tail := ids[1:]
			r.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
			l := ea.NewLocal()
			epoch := 200 + 100*w
			first := true
			for _, v := range ids {
				rec := growthRecord(w, v, r.IntN(4))
				if err := l.Ingest(rec); err == nil {
					accepted[w] = append(accepted[w], rec)
				}
				if l.Pending() >= epoch {
					if first {
						full.Done()
						full.Wait()
						first = false
					}
					a, d := l.Flush()
					applied[w] += a
					dropped[w] += d
				}
			}
			a, d := l.Close()
			applied[w] += a
			dropped[w] += d
		}(w)
	}
	wg.Wait()

	for i, g := range ea.IndexDoublings() {
		if g < 4 {
			t.Fatalf("stripe %d's index doubled %d times, want ≥ 4: the race does not exercise growth", i, g)
		}
	}
	fs, err := ea.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	won := make(map[int32]stream.NodeRecord, len(fs.Nodes))
	for _, nr := range fs.Nodes {
		won[nr.Node] = nr
	}
	single, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	totalDropped := 0
	for w := range accepted {
		var kept []sample.NodeObservation
		for _, rec := range accepted[w] {
			if nr := won[rec.Node]; rec.Cat == nr.Cat && rec.Weight == nr.Weight {
				kept = append(kept, rec)
			}
		}
		if len(kept) != applied[w] || len(accepted[w])-len(kept) != dropped[w] {
			t.Fatalf("writer %d: flushes applied/dropped %d/%d, but %d of its %d accepted records match the winning constants",
				w, applied[w], dropped[w], len(kept), len(accepted[w]))
		}
		if _, err := single.IngestBatch(kept); err != nil {
			t.Fatalf("writer %d: single-lock reference rejected an applied record: %v", w, err)
		}
		totalDropped += dropped[w]
	}
	if totalDropped == 0 {
		t.Fatal("no record was dropped at flush: the race does not exercise constant conflicts")
	}
	if ea.Draws() != single.Draws() || ea.Distinct() != single.Distinct() {
		t.Fatalf("epoch draws/distinct = %d/%d, single-lock = %d/%d",
			ea.Draws(), ea.Distinct(), single.Draws(), single.Distinct())
	}
	want, err := single.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ea.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d := stream.MaxRelDiff(got.Result.Sizes, want.Result.Sizes); d > 1e-9 {
		t.Fatalf("size mismatch %g", d)
	}
	if d := stream.WeightsMaxDiff(got.Result.Weights, want.Result.Weights); d > 1e-9 {
		t.Fatalf("weight mismatch %g", d)
	}
	if d := stream.MaxRelDiff(got.Within, want.Within); d > 1e-9 {
		t.Fatalf("within mismatch %g", d)
	}
	if d := math.Abs(got.PopEstimate-want.PopEstimate) / want.PopEstimate; d > 1e-9 {
		t.Fatalf("pop estimate %g, single-lock %g", got.PopEstimate, want.PopEstimate)
	}
	sfs, err := single.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fs.Nodes, sfs.Nodes) {
		t.Fatal("epoch node directory differs from the single-lock reference's")
	}

	frame := func(fs *stream.FullState) []byte {
		t.Helper()
		b, err := wire.EncodeCheckpoint(&wire.Checkpoint{Name: "growth", Gen: fs.State.Gen, State: fs})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	restored, err := stream.RestoreEpochAccumulator(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame(fs), frame(again)) {
		t.Fatal("checkpoint → restore → checkpoint changed the frame")
	}
}
