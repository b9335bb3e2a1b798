package main

import (
	"fmt"
	"math"
)

// step is one probe of the capacity search: an open-loop phase at a fixed
// offered rate, judged against the workload's latency objective.
type step struct {
	rate       float64 // offered records per second
	p99ms      float64
	failed     int
	lateGrowMs float64
	pass       bool
}

func (s step) String() string {
	verdict := "fail"
	if s.pass {
		verdict = "pass"
	}
	return fmt.Sprintf("%.0f rec/s: p99 %.2f ms, failed %d, lateness growth %.2f ms → %s",
		s.rate, s.p99ms, s.failed, s.lateGrowMs, verdict)
}

// judge applies the capacity rule to one phase: every request acknowledged,
// p99 latency from the scheduled send within slo, and generator lateness not
// growing by more than a tenth of slo between the phase's first and last
// thirds.
func judge(p *phase, recordsPerReq int, slo float64) step {
	s := step{
		rate:       p.rate * float64(recordsPerReq),
		failed:     p.failed(),
		lateGrowMs: p.latenessGrowthMs(),
	}
	s.p99ms, _ = percentile(p.latenciesMs(), 0.99)
	s.pass = s.failed == 0 && s.p99ms <= slo && s.lateGrowMs <= slo/10
	return s
}

// searchCapacity finds the highest rate that passes probe, starting from
// the bracket [lo, hi] and narrowing it geometrically until hi/lo − 1 ≤
// width. The bracket ends are assumed (pass at lo, fail at hi) until a
// probe contradicts them; an end never probed is verified at the end, and
// a wrong guess moves the bracket outward. It returns the lower end — the
// highest rate observed to pass — and every step taken, or an error when
// maxSteps probes did not bring the bracket under width.
func searchCapacity(lo, hi, width float64, maxSteps int, probe func(rate float64) step) (float64, []step, error) {
	var steps []step
	try := func(rate float64) bool {
		s := probe(rate)
		steps = append(steps, s)
		return s.pass
	}
	loOK, hiBad := false, false
	for len(steps) < maxSteps {
		if hi/lo-1 > width {
			mid := math.Sqrt(lo * hi)
			if try(mid) {
				lo, loOK = mid, true
			} else {
				hi, hiBad = mid, true
			}
			continue
		}
		switch {
		case !loOK:
			if try(lo) {
				loOK = true
			} else {
				hi, hiBad, lo = lo, true, lo/2
			}
		case !hiBad:
			if try(hi) {
				lo, hi = hi, hi*2
			} else {
				hiBad = true
			}
		default:
			return lo, steps, nil
		}
	}
	return lo, steps, fmt.Errorf("capacity search: bracket [%.0f, %.0f] still wider than %.0f%% after %d steps", lo, hi, width*100, maxSteps)
}
