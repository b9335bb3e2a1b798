package stream

import (
	"math/bits"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/sample"
)

// Hooks for the external stream_test package, whose tests import packages
// that import stream themselves (internal/wire).

// IndexDoublings returns how many times each directory stripe's index has
// doubled.
func (ea *EpochAccumulator) IndexDoublings() []int {
	out := make([]int, len(ea.stripes))
	for i := range ea.stripes {
		st := &ea.stripes[i]
		st.mu.Lock()
		out[i] = bits.Len(uint(len(st.index)/initSlots)) - 1
		st.mu.Unlock()
	}
	return out
}

var (
	MaxRelDiff     = maxRelDiff
	WeightsMaxDiff = weightsMaxDiff
)

// InducedPaperWalk returns n induced records of a random walk over a
// 2,250-node paper-model graph (K = 10), the equivalent batch observation,
// and the graph. Past the first few thousand records most records re-draw a
// node with many observed incident edges.
func InducedPaperWalk(t testing.TB, n int) ([]sample.NodeObservation, *sample.Observation, *graph.Graph) {
	t.Helper()
	g, err := gen.Paper(randx.New(11), gen.PaperConfig{
		Sizes:   []int64{150, 300, 600, 1200},
		K:       10,
		Alpha:   0.4,
		Connect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sample.NewRW(200).Sample(randx.New(67), g, n)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, false)
	if err != nil {
		t.Fatal(err)
	}
	obs := so.NewObservation()
	recs := make([]sample.NodeObservation, s.Len())
	for i, v := range s.Nodes {
		recs[i] = so.Observe(v, s.Weight(i))
		if err := obs.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return recs, obs, g
}
