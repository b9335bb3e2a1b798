package stream

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/uncert"
)

// The multi-core ingest architecture: thread-local accumulation with
// epoch-based exact merge.
//
// The previous multi-core design (a hash-partitioned ShardedAccumulator)
// still took one mutex per record — just a different mutex per node — and
// the committed benchmarks showed it losing to the single lock outright:
// cross-core cache-line traffic on the shard locks and counters cost more
// than the partition saved. This design removes shared state from the
// per-record path entirely. Each writer owns a Local that records draws
// into private, writer-owned memory; a Flush (every flushEvery records, at
// a crawl round barrier, or at the end of an HTTP batch) folds the epoch
// into the published view in two short phases:
//
//  1. Per node, under a striped lock on the shared node directory: validate
//     the node's constants (category, weight) against the directory,
//     reserve the node's draw interval [m, m+c) by advancing its published
//     multiplicity, and reconcile star data both ways (late-star backfill,
//     degree retrofit). Stripes span whole cache lines and are touched once
//     per DISTINCT node per epoch, not once per record.
//  2. Under the accumulator's single mutex: merge the epoch's core.Sums and
//     bootstrap replicates (core.Sums.Merge / uncert.Replicates.Merge) and
//     the collision scalars, then advance Gen by the number of applied
//     records. The serialized work is O(K + touched·B + pairs) per epoch —
//     amortized sub-nanosecond per record at any realistic epoch size.
//
// Exactness. All star-scenario statistics are linear in the per-node draw
// multiplicities except two: the colliding-pair count Σ_v m_v(m_v−1)/2 and
// Rew2's per-node squares Σ_v (m_v/w_v)². Both telescope: an epoch that
// advances a node from multiplicity m to m+c contributes exactly
// f(m+c) − f(m), which the flush computes from the reserved interval
// (AddNode/AddDraws with prev = m). Because reservation is serialized per
// node and the increments are pure additions, any interleaving of epoch
// merges sums to the pooled stream's statistics — the same ≤ 1e-9 agreement
// with a single-lock accumulator the sharded design had, now without per-
// record locks. (Between a flush's reservation and its merge the published
// collision count can transiently include draws not yet merged; the linear
// statistics behind sizes, weights and densities are unaffected, and the
// view is exact whenever no flush is mid-flight.)
//
// Visibility contract: records become visible to Snapshot, Draws and Gen
// when their epoch is FLUSHED, not when Ingest returns on a Local. The
// EpochAccumulator's own Ingest/IngestBatch flush internally before
// returning, so the Ingester-level contract — an acked record is included
// in any snapshot taken after a Gen read that postdates the ack — is
// unchanged from the single-lock accumulator.
//
// The node directory holds no Go pointer per node (directory.go): each
// stripe keeps an open-addressed index, a slab of inline entries and
// append-only star arenas, all of pointer-free element types. At ~10⁶
// distinct nodes a pointer per node would make every GC mark phase trace
// the whole directory; this way the GC marks one pointer per chunk of about
// a thousand entries, and a flush's directory writes need no write
// barriers. A Local keeps the slab position of each node it found at first
// touch, so the flush reaches the entry again without a second probe.

// epochStripes is the size of the shared node directory's lock striping
// (power of two; 64 stripes keeps contention negligible far beyond the
// writer counts the benchmarks exercise).
const epochStripes = 64

// flushEvery is the auto-flush threshold of a Local in records: large
// enough to amortize the flush to noise, small enough to keep the published
// view fresh and the epoch's node map cache-resident. Callers that want
// smaller epochs flush their Local explicitly.
const flushEvery = 1024

// EpochAccumulator is the multi-core accumulator: writers ingest into
// private Locals (NewLocal) and publish by flushing epochs, so the
// per-record hot path touches no shared state at all. It implements
// Ingester — its own Ingest/IngestBatch run an internal Local and flush
// before returning, preserving the single-lock accumulator's ack-visibility
// and batch-prefix semantics — and its snapshots equal a single-lock
// accumulator's for the same records to ≤ 1e-9 (see the package tests).
//
// The epoch design requires the star scenario. Star records are per-node
// self-contained (degree + neighbor-category counts), so epochs compose by
// pure addition once each node's draw interval is reserved. Induced records
// are cross-referential — an edge's mass couples the live multiplicities of
// two nodes — so induced streams must use the single-lock Accumulator.
type EpochAccumulator struct {
	cfg Config

	stripes  [epochStripes]nodeStripe
	distinct core.PaddedInt64

	// gen is the ingest generation: advanced by each flush, by the number
	// of records the flush applied, inside the published-view critical
	// section. Padded: it is the one counter every flush and every
	// /estimate cache probe touches.
	gen core.PaddedUint64

	// flushGate serializes flushes against ExportFull. Flushes hold it
	// shared for the phase-1→phase-2 span (one RWMutex op per epoch, not
	// per record); ExportFull takes it exclusively so its cut never sees a
	// directory reservation whose sums merge is still mid-flight.
	flushGate sync.RWMutex

	// mu guards the published view: the merged sums and replicates, the
	// collision scalars, and the convergence baseline.
	mu sync.Mutex
	view

	// pool recycles the Locals behind IngestBatch and TakeLocal so a
	// request-scoped writer does not allocate an epoch (sums + replicate
	// grids) per call.
	pool sync.Pool
}

// NewEpochAccumulator returns an empty epoch-merged accumulator. The
// configuration must select the star scenario (see the type comment).
func NewEpochAccumulator(cfg Config) (*EpochAccumulator, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("stream: config needs K ≥ 1 categories, got %d", cfg.K)
	}
	if cfg.Replicates.B < 0 {
		return nil, fmt.Errorf("stream: config needs ≥ 0 bootstrap replicates, got %d", cfg.Replicates.B)
	}
	if !cfg.Star {
		return nil, fmt.Errorf("stream: epoch-merged ingest requires the star scenario (induced edge masses couple nodes across epochs); use the single-lock Accumulator for induced streams")
	}
	ea := &EpochAccumulator{
		cfg:  cfg,
		view: view{sums: core.NewSums(cfg.K, true)},
	}
	if cfg.Replicates.Enabled() {
		reps, err := uncert.NewReplicates(cfg.K, true, cfg.Replicates)
		if err != nil {
			return nil, err
		}
		ea.reps = reps
	}
	for i := range ea.stripes {
		ea.stripes[i].init(cfg.K)
	}
	ea.pool.New = func() any { return ea.newLocal(false) }
	return ea, nil
}

// Config returns the accumulator's configuration.
func (ea *EpochAccumulator) Config() Config { return ea.cfg }

// Gen implements Ingester: the monotone ingest generation, advanced at
// flush by the number of records the flush applied.
func (ea *EpochAccumulator) Gen() uint64 { return ea.gen.Load() }

// Draws returns the number of draws flushed into the published view so far.
// Records sitting in an unflushed Local are not yet counted — the
// flush-visibility contract (see the architecture comment above).
func (ea *EpochAccumulator) Draws() int { return int(ea.gen.Load()) }

// Distinct returns the number of distinct nodes in the published view.
func (ea *EpochAccumulator) Distinct() int { return int(ea.distinct.Load()) }

// ReplicateBytes implements Ingester. Each writer's Local keeps its own
// flush scratch of the same shape, which is not counted.
func (ea *EpochAccumulator) ReplicateBytes() int64 {
	ea.mu.Lock()
	defer ea.mu.Unlock()
	return ea.replicateBytes()
}

// DirectoryBytes returns the memory the node directory holds: every
// stripe's index, plus the capacities of its entry slab and star arenas
// (abandoned runs included). It reads one stripe lock at a time, so under
// concurrent flushes the total is a sum of per-stripe cuts.
func (ea *EpochAccumulator) DirectoryBytes() int64 {
	var n int64
	for i := range ea.stripes {
		st := &ea.stripes[i]
		st.mu.Lock()
		n += st.bytes()
		st.mu.Unlock()
	}
	return n
}

// stripeFor routes a node id to its directory stripe.
func (ea *EpochAccumulator) stripeFor(node int32) *nodeStripe {
	return &ea.stripes[dirHash(node)&(epochStripes-1)]
}

// Ingest folds one node observation through an internal Local and flushes
// immediately, so the record is visible when the call returns — the
// drop-in compatibility path for callers that need per-record acks. Bulk
// writers should hold their own Local (NewLocal) instead and flush per
// epoch. A record whose node lost a constants race against a concurrent
// writer (first-writer-wins) is dropped and reported as a
// *FlushConflictError.
func (ea *EpochAccumulator) Ingest(rec sample.NodeObservation) error {
	_, err := ea.IngestBatch([]sample.NodeObservation{rec})
	return err
}

// IngestBatch folds a batch in order through an internal Local — one epoch
// per batch — stopping at the first invalid record and flushing what was
// accepted. Without a flush conflict it returns how many leading records
// were applied, which is the retry index of the /ingest 422 protocol:
// recs[n] is the offender.
//
// A node's constants are fixed by whichever writer lands it first, so
// whether recs[n] validates can depend on interleaved writers. Conflicts a
// batch can see locally (against its own records or the already-published
// directory) are reported per index. A conflict that arises between this
// batch's validation and its flush drops the batch's draws of that node at
// the merge (counted in stream_ingest_rejected_total{reason="flush_conflict"});
// IngestBatch then returns the number of records applied together with a
// *FlushConflictError, whose counts cover the flushed records recs[:n+dropped]
// and wrap the validation error of recs[n+dropped], if any.
func (ea *EpochAccumulator) IngestBatch(recs []sample.NodeObservation) (int, error) {
	l := ea.TakeLocal()
	defer ea.PutLocal(l)
	var err error
	for _, rec := range recs {
		if err = l.Ingest(rec); err != nil {
			break
		}
	}
	applied, dropped := l.Flush()
	if dropped > 0 {
		return applied, &FlushConflictError{Applied: applied, Dropped: dropped, Err: err}
	}
	return applied, err
}

// TakeLocal borrows a writer-private Local from the accumulator's pool —
// the request-scoped alternative to NewLocal for writers that ingest one
// batch and publish it before answering. The caller owns the Local until it
// hands it back with PutLocal.
func (ea *EpochAccumulator) TakeLocal() *Local { return ea.pool.Get().(*Local) }

// PutLocal publishes whatever the borrowed Local still holds and returns it
// to the pool. Callers that need the applied and dropped counts Flush
// before PutLocal; the flush here then finds an empty epoch.
func (ea *EpochAccumulator) PutLocal(l *Local) {
	l.Flush()
	ea.pool.Put(l)
}

// FlushConflictError reports records dropped at a flush: they validated
// against their epoch, but before the flush published them a concurrent
// writer fixed their node's per-node constants (category, weight or star
// data) to contradicting values. Drops are per node, not a prefix of the
// flushed records. Err, when non-nil, is the validation error of the record
// that stopped the batch after the flushed ones.
type FlushConflictError struct {
	Applied, Dropped int
	Err              error
}

func (e *FlushConflictError) Error() string {
	msg := fmt.Sprintf("stream: %d of %d records dropped at flush: their nodes' per-node constants (category/weight/star data) lost a first-writer race against a concurrent writer", e.Dropped, e.Applied+e.Dropped)
	if e.Err != nil {
		msg += "; the batch then stopped at an invalid record: " + e.Err.Error()
	}
	return msg
}

func (e *FlushConflictError) Unwrap() error { return e.Err }

// Snapshot computes the current estimate from the published view in
// O(K² + pairs). It sees exactly the flushed epochs — see the
// flush-visibility contract.
func (ea *EpochAccumulator) Snapshot() (*Snapshot, error) {
	defer mSnapshotSec.ObserveSince(time.Now())
	ea.mu.Lock()
	defer ea.mu.Unlock()
	return ea.snapshot(ea.cfg, int(ea.distinct.Load()), "stream: empty accumulator")
}

// localNode is one node's epoch-private state: the draw count of this
// epoch, the node's constants (read from the shared directory at first
// touch, or fixed by the epoch's first record), the ref of its directory
// entry when one existed at first touch (0 otherwise), and the epoch's
// merged star view. nbrCat/nbrCnt reuse their backing arrays across epochs.
type localNode struct {
	node     int32
	cat      int32
	count    float64
	weight   float64
	ref      uint32
	starSeen bool
	deg      float64
	nbrCat   []int32
	nbrCnt   []float64
}

// Local is a writer-private accumulator over one EpochAccumulator: Ingest
// touches only writer-owned memory (plus one striped directory read per
// distinct node per epoch), and Flush publishes the epoch. A Local is NOT
// safe for concurrent use — it is the "one per walker / one per connection"
// half of the design; concurrency lives across Locals, not within one.
// Flush and the accumulator's snapshots may race freely with other Locals.
type Local struct {
	ea    *EpochAccumulator
	epoch map[int32]int32
	nodes []localNode
	recs  int

	// pending mirrors recs atomically for the stream_local_pending_records
	// gauge (written only by the owning writer, read by the metrics
	// scraper).
	pending core.PaddedInt64

	// sums/reps are the flush scratch: zeroed between epochs (Reset), so a
	// steady-state flush allocates nothing.
	sums *core.Sums
	reps *uncert.Replicates

	// autoApplied/autoDropped count what auto-flushes published since the
	// last Flush call, so Flush accounts for every record since then.
	autoApplied, autoDropped int

	registered bool
}

// localRegistry tracks live registered Locals for the pending-records
// gauge.
var localRegistry = struct {
	sync.Mutex
	set map[*Local]struct{}
}{set: make(map[*Local]struct{})}

func init() {
	obs.NewGaugeFunc("stream_local_pending_records",
		"Records accepted by live epoch locals but not yet flushed into a published view.",
		func() float64 {
			localRegistry.Lock()
			defer localRegistry.Unlock()
			var n int64
			for l := range localRegistry.set {
				n += l.pending.Load()
			}
			return float64(n)
		})
}

// NewLocal returns a new writer-private Local. The caller owns it: one
// goroutine ingests, and Flush (or Close, when done) publishes. Locals
// auto-flush after flushEvery (1024) records as a safety valve.
func (ea *EpochAccumulator) NewLocal() *Local {
	return ea.newLocal(true)
}

func (ea *EpochAccumulator) newLocal(register bool) *Local {
	l := &Local{
		ea:    ea,
		epoch: make(map[int32]int32),
		sums:  core.NewSums(ea.cfg.K, true),
	}
	if ea.reps != nil {
		// Same config as the published replicates, so Merge cannot fail.
		reps, err := uncert.NewReplicates(ea.cfg.K, true, ea.cfg.Replicates)
		if err != nil {
			panic(err)
		}
		l.reps = reps
	}
	if register {
		l.registered = true
		localRegistry.Lock()
		localRegistry.set[l] = struct{}{}
		localRegistry.Unlock()
	}
	return l
}

// Pending returns the number of accepted records not yet flushed.
func (l *Local) Pending() int { return l.recs }

// Close flushes the Local and removes it from the pending-records gauge.
// The Local must not be used afterwards.
func (l *Local) Close() (applied, dropped int) {
	applied, dropped = l.Flush()
	if l.registered {
		localRegistry.Lock()
		delete(localRegistry.set, l)
		localRegistry.Unlock()
		l.registered = false
	}
	return applied, dropped
}

// lookupShared copies a node's directory entry under the stripe lock,
// together with its ref (0 when the node is not in the directory yet) and
// its star run, which stays valid after the lock is released (runs are
// append-only).
func (ea *EpochAccumulator) lookupShared(node int32) (e dirEntry, ref uint32, nbrCat []int32, nbrCnt []float64) {
	st := ea.stripeFor(node)
	st.mu.Lock()
	if _, ref = st.find(node); ref != 0 {
		e = *st.entry(ref)
		nbrCat, nbrCnt = st.star(&e)
	}
	st.mu.Unlock()
	return e, ref, nbrCat, nbrCnt
}

// Ingest folds one node observation into the epoch. Validation matches the
// single-lock accumulator record for record — invalid categories, weights
// and star fields, scenario mismatches, and conflicts with the node's
// constants as known to this epoch (its own earlier records, or the
// published directory at the node's first touch) are rejected without
// changing any state. Conflicts created by writers racing AFTER the first
// touch surface at Flush instead (the epoch's draws of that node are
// dropped and counted); see IngestBatch on the EpochAccumulator.
func (l *Local) Ingest(rec sample.NodeObservation) error {
	cfg := &l.ea.cfg
	if rec.Cat != graph.None && (rec.Cat < 0 || int(rec.Cat) >= cfg.K) {
		return reject("bad_category", "stream: node %d has category %d outside [0,%d)", rec.Node, rec.Cat, cfg.K)
	}
	if math.IsNaN(rec.Weight) || math.IsInf(rec.Weight, 0) || rec.Weight < 0 {
		return reject("bad_weight", "stream: node %d has invalid sampling weight %g (0 means 1; negative, NaN and infinite are rejected)", rec.Node, rec.Weight)
	}
	if len(rec.Peers) > 0 {
		return reject("scenario_mismatch", "stream: node %d carries induced peers but the accumulator runs the star scenario", rec.Node)
	}
	w := rec.Weight
	if w == 0 {
		w = 1
	}
	var ln *localNode
	var sh dirEntry
	var ref uint32
	var shCat []int32
	var shCnt []float64
	if idx, known := l.epoch[rec.Node]; known {
		ln = &l.nodes[idx]
	} else {
		sh, ref, shCat, shCnt = l.ea.lookupShared(rec.Node)
	}
	shStar, shDeg := sh.starSeen(), sh.deg
	// The node's constants as this epoch knows them: from its earlier
	// records, or from the directory entry just read.
	knownCat, knownWeight := rec.Cat, w
	constrained := false
	switch {
	case ln != nil:
		knownCat, knownWeight, constrained = ln.cat, ln.weight, true
	case ref != 0:
		knownCat, knownWeight, constrained = sh.cat, sh.weight, true
	}
	if constrained {
		if rec.Cat != knownCat {
			return reject("redraw_conflict", "stream: node %d re-drawn with category %d, conflicting with its first observation (category %d)", rec.Node, rec.Cat, knownCat)
		}
		if rec.Weight != 0 && w != knownWeight {
			return reject("redraw_conflict", "stream: node %d re-drawn with sampling weight %g, conflicting with its first observation (weight %g)", rec.Node, w, knownWeight)
		}
	}
	// Star data: validate and reconcile against the epoch's merged view
	// BEFORE mutating anything, so a rejected record leaves the epoch
	// unchanged.
	carries := len(rec.NbrCat) > 0 || len(rec.NbrCnt) > 0 || rec.Deg != 0
	var newDeg float64
	var newCat []int32
	var newCnt []float64
	upgrade := false
	if carries {
		if err := sample.ValidateStarFields(cfg.K, rec); err != nil {
			return reject("bad_star", "stream: %w", err)
		}
		cat, cnt := sample.CanonicalStarCounts(rec.NbrCat, rec.NbrCnt)
		viewSeen := (ln != nil && ln.starSeen) || (ln == nil && shStar)
		if viewSeen {
			vDeg, vCat, vCnt := shDeg, shCat, shCnt
			if ln != nil {
				vDeg, vCat, vCnt = ln.deg, ln.nbrCat, ln.nbrCnt
			}
			d, ct, cn, err := sample.ReconcileStarData(rec.Node, rec.Deg, cat, cnt, vDeg, vCat, vCnt)
			if err != nil {
				return reject("star_conflict", "stream: %w", err)
			}
			if d != vDeg || len(ct) != len(vCat) {
				newDeg, newCat, newCnt, upgrade = d, ct, cn, true
			}
		} else {
			newDeg = sample.EffectiveStarDegree(rec.Deg, cnt)
			newCat, newCnt, upgrade = cat, cnt, true
		}
	}
	// All checks passed: mutate the epoch.
	if ln == nil {
		n := len(l.nodes)
		if n < cap(l.nodes) {
			l.nodes = l.nodes[:n+1]
		} else {
			l.nodes = append(l.nodes, localNode{})
		}
		ln = &l.nodes[n]
		ln.node, ln.cat, ln.weight = rec.Node, knownCat, knownWeight
		ln.count = 0
		ln.ref = ref
		ln.starSeen = shStar
		if shStar {
			ln.deg = shDeg
			ln.nbrCat = append(ln.nbrCat[:0], shCat...)
			ln.nbrCnt = append(ln.nbrCnt[:0], shCnt...)
		} else {
			ln.deg = 0
			ln.nbrCat = ln.nbrCat[:0]
			ln.nbrCnt = ln.nbrCnt[:0]
		}
		l.epoch[rec.Node] = int32(n)
	}
	if upgrade {
		ln.starSeen = true
		ln.deg = newDeg
		ln.nbrCat = append(ln.nbrCat[:0], newCat...)
		ln.nbrCnt = append(ln.nbrCnt[:0], newCnt...)
	}
	ln.count++
	l.recs++
	l.pending.Store(int64(l.recs))
	if l.recs >= flushEvery {
		a, d := l.publish()
		l.autoApplied += a
		l.autoDropped += d
	}
	return nil
}

// Flush publishes the epoch: reserves every node's draw interval in the
// shared directory (phase 1, striped locks), computes the epoch's batched
// statistics against the reserved intervals in writer-private memory, and
// merges them into the published view under one short critical section
// (phase 2). It returns how many of the records ingested since the previous
// Flush call were applied and how many were dropped because their node's
// constants lost a first-writer race since the epoch validated them
// (counted under reason "flush_conflict"); the counts include records an
// auto-flush already published. Flushing an empty epoch is a cheap no-op.
func (l *Local) Flush() (applied, dropped int) {
	applied, dropped = l.publish()
	applied += l.autoApplied
	dropped += l.autoDropped
	l.autoApplied, l.autoDropped = 0, 0
	return applied, dropped
}

// publish folds the current epoch into the published view (see Flush) and
// returns its applied and dropped record counts.
func (l *Local) publish() (applied, dropped int) {
	if l.recs == 0 {
		return 0, 0
	}
	t0 := time.Now()
	ea := l.ea
	ea.flushGate.RLock()
	var psi1, psiInv, coll float64
	for i := range l.nodes {
		ln := &l.nodes[i]
		c := ln.count
		st := ea.stripeFor(ln.node)

		// Phase 1 for this node: validate, reserve [m, m+c), reconcile
		// star data. Star runs read out of the directory stay valid after
		// unlock (the arenas are append-only).
		var m float64
		var viewSeen bool
		var viewDeg float64
		var viewCat []int32
		var viewCnt []float64
		var retroDeg float64
		var retroCat []int32
		var retroCnt []float64
		st.mu.Lock()
		ref := ln.ref
		var slot int
		if ref == 0 {
			// Unknown at first touch; another writer may have published
			// the node since.
			slot, ref = st.find(ln.node)
		}
		if ref == 0 {
			e := dirEntry{node: ln.node, cat: ln.cat, mult: c, weight: ln.weight}
			if ln.starSeen {
				st.setStar(&e, ln.deg, ln.nbrCat, ln.nbrCnt)
			}
			st.insert(slot, e)
			st.mu.Unlock()
			ea.distinct.Add(1)
			viewSeen, viewDeg, viewCat, viewCnt = ln.starSeen, ln.deg, ln.nbrCat, ln.nbrCnt
		} else {
			sh := st.entry(ref)
			if ln.cat != sh.cat || ln.weight != sh.weight {
				st.mu.Unlock()
				dropped += int(c)
				mRejected.With("flush_conflict").Add(int64(c))
				continue
			}
			m = sh.mult
			shCat, shCnt := st.star(sh)
			conflict := false
			switch {
			case ln.starSeen && sh.starSeen():
				d, ct, cn, err := sample.ReconcileStarData(ln.node, ln.deg, ln.nbrCat, ln.nbrCnt, sh.deg, shCat, shCnt)
				if err != nil {
					conflict = true
					break
				}
				if d != sh.deg || len(ct) != len(shCat) {
					// Retrofit the directory's m earlier draws with the
					// upgraded information: the degree delta, plus the
					// adopted counts when the stored list grew.
					retroDeg = d - sh.deg
					if len(ct) != len(shCat) {
						retroCat, retroCnt = ct, cn
					}
					st.setStar(sh, d, ct, cn)
				}
				viewSeen, viewDeg, viewCat, viewCnt = true, d, ct, cn
			case ln.starSeen && !sh.starSeen():
				// Late-star backfill across epochs: the directory's m
				// draws contributed zero star mass; credit them with the
				// epoch's star data.
				st.setStar(sh, ln.deg, ln.nbrCat, ln.nbrCnt)
				retroDeg = ln.deg
				retroCat, retroCnt = ln.nbrCat, ln.nbrCnt
				viewSeen, viewDeg, viewCat, viewCnt = true, ln.deg, ln.nbrCat, ln.nbrCnt
			case !ln.starSeen && sh.starSeen():
				// The epoch's draws carried no star data but the
				// directory has it: credit them with the published view.
				viewSeen, viewDeg, viewCat, viewCnt = true, sh.deg, shCat, shCnt
			}
			if conflict {
				st.mu.Unlock()
				dropped += int(c)
				mRejected.With("flush_conflict").Add(int64(c))
				continue
			}
			sh.mult += c
			st.mu.Unlock()
		}

		// Batched epoch math against the reserved interval, in private
		// memory — the nonlinear statistics telescope exactly from prev=m
		// (see the architecture comment).
		w, cat := ln.weight, ln.cat
		l.sums.AddNode(cat, w, c, m)
		psi1 += c * w
		psiInv += c / w
		coll += m*c + c*(c-1)/2
		if l.reps != nil {
			l.reps.AddDraws(ln.node, cat, w, c, m)
		}
		if viewSeen {
			l.sums.AddStar(cat, w, c, viewDeg, viewCat, viewCnt)
			if l.reps != nil {
				l.reps.AddStar(ln.node, cat, w, c, viewDeg, viewCat, viewCnt)
			}
		}
		if m > 0 && (retroDeg != 0 || len(retroCat) > 0) {
			l.sums.AddStar(cat, w, m, retroDeg, retroCat, retroCnt)
			if l.reps != nil {
				l.reps.AddStar(ln.node, cat, w, m, retroDeg, retroCat, retroCnt)
			}
		}
		applied += int(c)
	}

	// Phase 2: one short critical section merges the epoch into the
	// published view and advances Gen by the applied records.
	ea.mu.Lock()
	if err := ea.sums.Merge(l.sums); err != nil {
		// Impossible by construction: the local shares cfg.K and scenario.
		ea.mu.Unlock()
		panic(err)
	}
	if ea.reps != nil {
		if err := ea.reps.Merge(l.reps); err != nil {
			ea.mu.Unlock()
			panic(err)
		}
	}
	ea.psi1 += psi1
	ea.psiInv += psiInv
	ea.collisions += coll
	ea.gen.Add(uint64(applied))
	ea.mu.Unlock()
	ea.flushGate.RUnlock()

	// Reset the epoch in place: every allocation (node slice, map buckets,
	// sums slices, replicate grids) is reused.
	l.sums.Reset()
	if l.reps != nil {
		l.reps.Reset()
	}
	clear(l.epoch)
	l.nodes = l.nodes[:0]
	l.recs = 0
	l.pending.Store(0)
	mIngested.Add(int64(applied))
	mFlushes.Inc()
	mFlushSec.ObserveSince(t0)
	return applied, dropped
}
