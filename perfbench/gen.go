package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/sample"
)

// mix is the splitmix64 finalizer: a cheap bijective hash used to derive
// every generated value from (seed, index) or (seed, node).
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// starGen produces the star-bin-wide record stream: record i draws a node
// uniformly from a nodes-wide id space. Everything about a node — category,
// sampling weight, degree and neighbor-category counts — is a function of
// (seed, node), so every re-draw of a node is consistent with its first;
// about three records in four carry the node's star data, the rest are bare
// draws whose star data arrives (or already arrived) on another record.
type starGen struct {
	seed  uint64
	nodes int
	k     int
}

func (g starGen) record(i int) sample.NodeObservation {
	h := mix(g.seed ^ mix(uint64(i)))
	rec := g.node(int32(h % uint64(g.nodes)))
	if (h>>40)%4 == 0 {
		rec.Deg, rec.NbrCat, rec.NbrCnt = 0, nil, nil
	}
	return rec
}

// node returns the record of a draw of node that carries its star data.
func (g starGen) node(node int32) sample.NodeObservation {
	nh := mix(g.seed*0x2545f4914f6cdd1d ^ uint64(node))
	deg := 1 + int(nh%48)
	rec := sample.NodeObservation{Node: node, Cat: int32(nh >> 8 % uint64(g.k)), Weight: float64(deg), Deg: float64(deg)}
	// Neighbor categories: up to six distinct categories from a
	// node-dependent offset, with counts that cover at most the degree.
	m := 1 + int(nh>>16%uint64(min(deg, 6)))
	first := int(nh >> 24 % uint64(g.k))
	left := deg
	cats := make([]int32, 0, m)
	cnts := make([]float64, 0, m)
	for j := 0; j < m && left > 0; j++ {
		c := 1 + int(mix(nh+uint64(j))%uint64(left))
		if j == m-1 {
			c = max(1, left-int(nh>>32%2))
		}
		cats = append(cats, int32((first+j)%g.k))
		cnts = append(cnts, float64(c))
		left -= c
	}
	sortStar(cats, cnts)
	rec.NbrCat, rec.NbrCnt = cats, cnts
	return rec
}

// sortStar sorts the parallel category/count lists by category (insertion
// sort: the lists hold at most six entries).
func sortStar(cats []int32, cnts []float64) {
	for i := 1; i < len(cats); i++ {
		for j := i; j > 0 && cats[j] < cats[j-1]; j-- {
			cats[j], cats[j-1] = cats[j-1], cats[j]
			cnts[j], cnts[j-1] = cnts[j-1], cnts[j]
		}
	}
}

// records returns records [from, from+n).
func (g starGen) records(from, n int) []sample.NodeObservation {
	out := make([]sample.NodeObservation, n)
	for i := range out {
		out[i] = g.record(from + i)
	}
	return out
}

// paperSeed is the graph seed of the paper graph every graph workload
// uses: `topoestd -crawl`'s default -demo-seed. The workload seed varies
// the walks over it, not the graph, so runs with different seeds do
// comparable work.
const paperSeed = 1

// paperGraph builds the §6.2.1 graph exactly as `topoestd -crawl
// -demo-seed 1` does, so an in-process walk visits the graph the daemon
// crawls.
func paperGraph() (*graph.Graph, error) {
	return gen.Paper(randx.New(paperSeed), gen.PaperConfig{
		Sizes:   []int64{60, 80, 100, 200, 500, 800, 1000, 2000, 3000, 5000},
		K:       20,
		Alpha:   0.5,
		Connect: true,
	})
}

// walkGen is a seeded random walk over a graph whose every draw passes
// through sample.StreamObserver: under induced sampling the records list
// the draw's already-observed neighbors as peers, under star sampling they
// carry degree and neighbor-category counts on a node's first draw.
type walkGen struct {
	step sample.Stepper
	r    *rand.Rand
	cur  int32
	obs  *sample.StreamObserver
}

func newWalkGen(g graph.Source, star bool, seed uint64) (*walkGen, error) {
	r := randx.New(seed)
	cur, err := sample.RandomStart(r, g)
	if err != nil {
		return nil, fmt.Errorf("walk start: %w", err)
	}
	obs, err := sample.NewStreamObserver(g, star)
	if err != nil {
		return nil, err
	}
	w := &walkGen{step: sample.NewRWStepper(g), r: r, cur: cur, obs: obs}
	for i := 0; i < 1000; i++ { // burn-in, as the crawl controller's default
		w.cur = w.step.Step(w.r, w.cur)
	}
	return w, nil
}

// next returns the observation of the current node and moves on.
func (w *walkGen) next() sample.NodeObservation {
	v := w.cur
	rec := w.obs.Observe(v, w.step.Weight(v))
	w.cur = w.step.Step(w.r, v)
	return rec
}

func (w *walkGen) records(n int) []sample.NodeObservation {
	out := make([]sample.NodeObservation, n)
	for i := range out {
		out[i] = w.next()
	}
	return out
}
