package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/sample"
)

// estimateDoc is the part of GET /estimate the correctness gate compares.
type estimateDoc struct {
	Draws       int      `json:"draws"`
	Distinct    int      `json:"distinct"`
	PopEstimate *float64 `json:"pop_estimate"`
	Sizes       []struct {
		Cat      int32       `json:"cat"`
		Size     float64     `json:"size"`
		CI       *[2]float64 `json:"ci"`
		Within   *float64    `json:"within"`
		WithinCI *[2]float64 `json:"within_ci"`
	} `json:"sizes"`
	Weights []struct {
		A      int32       `json:"a"`
		B      int32       `json:"b"`
		Weight float64     `json:"w"`
		CI     *[2]float64 `json:"ci"`
	} `json:"weights"`
}

// expected is what the batch estimator says about a record stream.
type expected struct {
	draws, distinct int
	sizes, within   []float64
	weights         map[[2]int32]float64
}

// oracle folds records into a batch sample.Observation — the estimator's
// reference path, sharing no code with the streaming accumulators beyond
// the estimator formulas — and estimates from it.
type oracle struct {
	obs *sample.Observation
	n   float64
}

func newOracle(k int, star bool, n float64) *oracle {
	return &oracle{obs: &sample.Observation{K: k, Star: star}, n: n}
}

func (o *oracle) add(recs []sample.NodeObservation) error {
	for i := range recs {
		if err := o.obs.Append(recs[i]); err != nil {
			return fmt.Errorf("oracle rejects record of node %d: %w", recs[i].Node, err)
		}
	}
	return nil
}

func (o *oracle) expect() (*expected, error) {
	res, err := core.Estimate(o.obs, core.Options{N: o.n})
	if err != nil {
		return nil, err
	}
	var within []float64
	if o.obs.Star {
		within, err = core.WithinWeightsStar(o.obs, res.Sizes)
	} else {
		within, err = core.WithinWeightsInduced(o.obs)
	}
	if err != nil {
		return nil, err
	}
	e := &expected{
		draws: o.obs.Draws, distinct: len(o.obs.Nodes),
		sizes: res.Sizes, within: within, weights: map[[2]int32]float64{},
	}
	res.Weights.ForEach(func(a, b int32, w float64) {
		if !math.IsNaN(w) {
			e.weights[[2]int32{a, b}] = w
		}
	})
	return e, nil
}

// tol is the gate's agreement bound, relative to the larger magnitude (or
// absolute below 1).
const tol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= tol*max(1, math.Abs(a), math.Abs(b))
}

// check compares a served estimate with the oracle's and returns every
// disagreement (nil when they agree to tol).
func (e *expected) check(doc *estimateDoc) error {
	var errs []string
	bad := func(format string, args ...any) {
		if len(errs) < 8 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	if doc.Draws != e.draws {
		bad("draws %d, oracle %d", doc.Draws, e.draws)
	}
	if doc.Distinct != e.distinct {
		bad("distinct %d, oracle %d", doc.Distinct, e.distinct)
	}
	if len(doc.Sizes) != len(e.sizes) {
		bad("%d sizes, oracle %d", len(doc.Sizes), len(e.sizes))
	}
	for _, s := range doc.Sizes {
		c := int(s.Cat)
		if c < 0 || c >= len(e.sizes) {
			bad("size of unknown category %d", c)
			continue
		}
		if !near(s.Size, e.sizes[c]) {
			bad("size[%d] %.17g, oracle %.17g", c, s.Size, e.sizes[c])
		}
		want := e.within[c]
		switch {
		case s.Within == nil && !(math.IsNaN(want) || math.IsInf(want, 0)):
			bad("within[%d] missing, oracle %.17g", c, want)
		case s.Within != nil && !near(*s.Within, want):
			bad("within[%d] %.17g, oracle %.17g", c, *s.Within, want)
		}
	}
	seen := 0
	for _, w := range doc.Weights {
		want, ok := e.weights[[2]int32{w.A, w.B}]
		if !ok {
			bad("weight(%d,%d) served but absent from oracle", w.A, w.B)
			continue
		}
		seen++
		if !near(w.Weight, want) {
			bad("weight(%d,%d) %.17g, oracle %.17g", w.A, w.B, w.Weight, want)
		}
	}
	if seen != len(e.weights) {
		bad("%d weights served, oracle has %d", seen, len(e.weights))
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("estimate disagrees with the batch oracle: %v", errs)
	}
	return nil
}

// sameEstimate compares two served estimates field by field, ignoring seq
// and convergence (restart gate: a restore must reproduce the estimate,
// bootstrap intervals included).
func sameEstimate(a, b *estimateDoc) error {
	if a.Draws != b.Draws || a.Distinct != b.Distinct {
		return fmt.Errorf("draws/distinct %d/%d before restart, %d/%d after", a.Draws, a.Distinct, b.Draws, b.Distinct)
	}
	if len(a.Sizes) != len(b.Sizes) || len(a.Weights) != len(b.Weights) {
		return fmt.Errorf("estimate shape changed across restart")
	}
	eqp := func(x, y *float64) bool { return (x == nil) == (y == nil) && (x == nil || near(*x, *y)) }
	eqi := func(x, y *[2]float64) bool {
		return (x == nil) == (y == nil) && (x == nil || (near(x[0], y[0]) && near(x[1], y[1])))
	}
	if !eqp(a.PopEstimate, b.PopEstimate) {
		return fmt.Errorf("pop_estimate changed across restart")
	}
	for i := range a.Sizes {
		x, y := a.Sizes[i], b.Sizes[i]
		if x.Cat != y.Cat || !near(x.Size, y.Size) || !eqp(x.Within, y.Within) || !eqi(x.CI, y.CI) || !eqi(x.WithinCI, y.WithinCI) {
			return fmt.Errorf("category %d estimate changed across restart", x.Cat)
		}
	}
	type wci struct {
		w  float64
		ci *[2]float64
	}
	bw := map[[2]int32]wci{}
	for _, y := range b.Weights {
		bw[[2]int32{y.A, y.B}] = wci{y.Weight, y.CI}
	}
	for _, x := range a.Weights {
		y, ok := bw[[2]int32{x.A, x.B}]
		if !ok || !near(x.Weight, y.w) || !eqi(x.CI, y.ci) {
			return fmt.Errorf("weight(%d,%d) changed across restart", x.A, x.B)
		}
	}
	return nil
}
