package stream

import (
	"repro/internal/core"
	"repro/internal/uncert"
)

// State is a consistent cut of everything an accumulator has learned from
// its stream: the primary Hansen–Hurwitz sums, the §4.3 collision scalars,
// the bootstrap replicate sums (nil when the bootstrap is off), and the
// ingest generation identifying the cut. It is the unit of the distributed
// estimation tier — workers Export, internal/wire serializes, and a
// coordinator Pool re-merges states from many processes into the pooled
// estimate, exactly as if one accumulator had ingested every stream
// (see core.Sums.Merge for the exactness conditions; the nonlinear collision
// and Rew2 statistics pool exactly only when workers observe disjoint node
// sets, e.g. a hash partition of the id space).
//
// A State shares no mutable memory with the accumulator that produced it.
type State struct {
	// K and Star identify the partition and scenario.
	K    int
	Star bool
	// Gen is the accumulator's ingest generation at the cut: every record
	// whose ingest (or flush) completed before the Export call is included.
	Gen uint64
	// Distinct is the number of distinct nodes at (approximately) the cut.
	// For the EpochAccumulator it is informational: the distinct counter
	// advances outside the publish mutex, so it may momentarily disagree
	// with Sums by a node whose first flush is mid-flight.
	Distinct int64
	// Psi1, PsiInv and Collisions are the population-size statistics
	// (Σ m_v·w_v, Σ m_v/w_v, Σ m_v(m_v−1)/2).
	Psi1, PsiInv, Collisions float64
	// Sums holds the primary sufficient statistics.
	Sums *core.Sums
	// Reps holds the bootstrap replicate sums; nil when the accumulator
	// runs without replicates.
	Reps *uncert.Replicates
}

// stateShell is the pre-allocated destination of a two-phase export: every
// buffer a State copy needs, built OUTSIDE the accumulator's publish mutex
// so the critical section only moves bytes. Deep-copying a B=200 replicate
// set allocates and zeroes O(K·B + pairs·B) float64s and builds maps — work
// that used to run under the publish mutex and stall every concurrent
// ingest for the whole copy. The shell pulls all of it off the lock: the
// locked half (copyFrom) is flat memcpys plus a map fill whose vectors come
// from a reserved arena.
type stateShell struct {
	st   *State
	reps *uncert.Replicates
}

// newStateShell allocates the destination buffers for an export of the
// given shape. repPairs is the pair count observed under a brief peek at
// the source; headroom covers pairs created between the peek and the copy
// (the locked copy falls back to the heap for rare growth past it).
func newStateShell(cfg Config, withReps bool, repPairs int) (*stateShell, error) {
	sh := &stateShell{st: &State{
		K:    cfg.K,
		Star: cfg.Star,
		Sums: core.NewSums(cfg.K, cfg.Star),
	}}
	if withReps {
		reps, err := uncert.NewReplicates(cfg.K, cfg.Star, cfg.Replicates)
		if err != nil {
			return nil, err
		}
		reps.ReservePairs(repPairs + repPairs/8 + 4)
		sh.reps = reps
	}
	return sh, nil
}

// copyFrom is the locked half: flat copies of the view's sums, scalars and
// replicate state into the pre-allocated shell. The caller holds whatever
// mutex makes the view and gen mutually consistent.
func (sh *stateShell) copyFrom(v *view, gen uint64, distinct int64) error {
	sh.st.Gen = gen
	sh.st.Distinct = distinct
	sh.st.Psi1, sh.st.PsiInv, sh.st.Collisions = v.psi1, v.psiInv, v.collisions
	if err := sh.st.Sums.CopyFrom(v.sums); err != nil {
		return err
	}
	if sh.reps != nil && v.reps != nil {
		if err := sh.reps.CopyFrom(v.reps); err != nil {
			return err
		}
		sh.st.Reps = sh.reps
	}
	return nil
}

// Export implements Ingester: a consistent cut of the accumulator's state,
// with the (sums, collision scalars, replicates, generation) all describing
// the same set of applied records. Exporting an empty accumulator succeeds —
// the zero state merges as a no-op, which is exactly what a coordinator
// wants from a worker that has not ingested yet.
//
// The copy is two-phase so concurrent ingest is stalled only for the flat
// byte moves: a brief lock reads the replicate pair count, the destination
// buffers (fresh sums, B replicate vectors and grids, the pair arena) are
// allocated unlocked, and a second short critical section memcpys the state
// across (see stateShell).
func (a *Accumulator) Export() (*State, error) {
	repPairs := 0
	if a.reps != nil {
		a.mu.Lock()
		repPairs = a.reps.PairCount()
		a.mu.Unlock()
	}
	sh, err := newStateShell(a.cfg, a.reps != nil, repPairs)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	err = sh.copyFrom(&a.view, a.gen.Load(), int64(len(a.nodes)))
	a.mu.Unlock()
	if err != nil {
		// Impossible by construction: the shell shares cfg.K and scenario.
		panic(err)
	}
	return sh.st, nil
}

// Export implements Ingester for the epoch-merged accumulator. The cut is
// taken under the publish mutex: flushes advance the generation inside the
// same critical section that merges their sums and replicates (see
// Local.Flush phase 2), so the exported (Sums, Reps, collision scalars, Gen)
// are mutually consistent — a flush is either fully in the cut or fully
// outside it. Records sitting in unflushed Locals are not exported, matching
// the flush-visibility contract of Snapshot. Distinct is informational (see
// State.Distinct). Like the single-lock accumulator, the copy is two-phase:
// allocation outside the publish mutex, flat byte moves inside, so flushes
// racing an export wait only for the memcpy.
func (ea *EpochAccumulator) Export() (*State, error) {
	repPairs := 0
	if ea.reps != nil {
		ea.mu.Lock()
		repPairs = ea.reps.PairCount()
		ea.mu.Unlock()
	}
	sh, err := newStateShell(ea.cfg, ea.reps != nil, repPairs)
	if err != nil {
		return nil, err
	}
	ea.mu.Lock()
	err = sh.copyFrom(&ea.view, ea.gen.Load(), ea.distinct.Load())
	ea.mu.Unlock()
	if err != nil {
		panic(err)
	}
	return sh.st, nil
}
