package main

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
)

// tracedPhase is what a traced run keeps of its timed phase against the
// daemon (started with GODEBUG=gctrace=1): the ingest and /estimate phases,
// /metrics scrapes around them, and the wall-clock window.
type tracedPhase struct {
	ingest, est   *phase
	before, after metrics
	from, to      time.Time
	route, job    string // the ingest route pattern and job label in /metrics
}

// reportLayers turns a traced phase plus the in-process replay of its
// requests into the per-layer metrics, and prints the request ledger.
func (e *env) reportLayers(d *daemon, tp *tracedPhase, in *replayInput, label string, distinct int, g *graph.Graph) error {
	lc, j, err := e.replayLayers(in, label)
	if err != nil {
		return err
	}
	if in.enc.name == "binary" {
		e.set("wire.records_decode_ns_per_rec", "ns", lc.decodeNs)
		e.set("json.records_decode_ns_per_rec", "ns", lc.otherDecodeNs)
	} else {
		e.set("json.records_decode_ns_per_rec", "ns", lc.decodeNs)
		e.set("wire.records_decode_ns_per_rec", "ns", lc.otherDecodeNs)
	}
	e.set("stream.ingest_ns_per_rec", "ns", lc.ingestNs)
	e.set("uncert.replicates_ns_per_rec", "ns", lc.replicatesNs)
	e.set("stream.distinct_nodes", "count", float64(distinct))
	e.set("trace.overhead_share", "1", lc.overhead)

	// Client-measured request time, from the actual send to the reply.
	var reqNs float64
	recs, reqs := 0, 0
	for _, o := range tp.ingest.out {
		if !o.failed {
			reqNs += float64(o.done - o.sent)
			recs += o.records
			reqs++
		}
	}
	if recs == 0 {
		return fmt.Errorf("traced phase acknowledged no records")
	}
	perRec := reqNs / float64(recs)
	e.set("http.request_ns_per_rec", "ns", perRec)
	e.set("http.residual_share", "1", 1-(lc.decodeNs+lc.ingestNs)/perRec)

	dm := tp.after.delta(tp.before)
	estimates := float64(len(tp.est.out))
	// Snapshots the estimate path computed: every stream snapshot except
	// the crawl controller's own (one per checkpoint plus one per finished
	// crawl).
	snaps := dm.sum("stream_snapshot_seconds_count") - dm.sum("crawl_checkpoint_seconds_count") - dm.sum("topoestd_job_crawl_starts_total")
	e.set("job.snapshot_cache_hit_ratio", "1", max(0, min(1, 1-snaps/estimates)))

	cycles, pause, err := gcStats(d, tp.from, tp.to)
	if err != nil {
		return err
	}
	e.set("runtime.gc_cycles", "count", float64(cycles))
	e.set("runtime.gc_pause_ms", "ms", pause)

	if err := e.stateProbes(j, in.decoded[len(in.decoded)-1][0]); err != nil {
		return err
	}
	if err := e.walkProbes(g); err != nil {
		return err
	}

	// Ledger of one average request of the phase, socket to ack.
	perReq := func(ns float64) float64 { return ns * float64(recs) / float64(reqs) / 1e3 }
	client := reqNs / float64(reqs) / 1e3
	route := `endpoint="` + tp.route + `"`
	handler := 1e6 * dm.sum("http_request_seconds_sum", route) / dm.sum("http_request_seconds_count", route)
	jl := `job="` + tp.job + `"`
	ingestSec := 1e6 * dm.sum("topoestd_job_ingest_seconds_sum", jl) / dm.sum("topoestd_job_ingest_seconds_count", jl)
	dec, ing := perReq(lc.decodeNs), perReq(lc.ingestNs)
	rows := []struct {
		name string
		us   float64
	}{
		{"socket, kernel and client (client time − server route time)", client - handler},
		{"routing and response encode (route time − job ingest time)", handler - ingestSec},
		{"body read, contention, unreplayed (job ingest time − replayed decode+ingest)", ingestSec - dec - ing},
		{in.enc.decodeSpan() + " (in-process replay)", dec},
		{"stream.ingest (in-process replay)", ing},
	}
	logf("ledger: one %d-record %s request at %.0f rec/s, socket to ack: %.1f µs client-measured",
		recs/reqs, in.enc.name, tp.ingest.rate*float64(recs/reqs), client)
	for _, r := range rows {
		logf("  %-78s %9.1f µs %6.1f%%", r.name, r.us, 100*r.us/client)
	}
	return nil
}

// walkProbes times the crawl's per-draw layers over the paper graph g —
// sample.Stepper.Step and the star StreamObserver.Observe — and its
// stopping-rule barrier: a snapshot plus every category's size and
// within-weight CI on a B = 100 accumulator, every 2000 draws.
func (e *env) walkProbes(g *graph.Graph) error {
	const steps = 200_000
	r := randx.New(e.seed)
	st := sample.NewRWStepper(g)
	cur, err := sample.RandomStart(r, g)
	if err != nil {
		return err
	}
	nodes := make([]int32, steps)
	t0 := time.Now()
	for i := range nodes {
		nodes[i] = cur
		cur = st.Step(r, cur)
	}
	e.set("sample.step_ns", "ns", float64(time.Since(t0))/steps)
	obs, err := sample.NewStreamObserver(g, true)
	if err != nil {
		return err
	}
	recs := make([]sample.NodeObservation, steps)
	t0 = time.Now()
	for i, v := range nodes {
		recs[i] = obs.Observe(v, st.Weight(v))
	}
	e.set("sample.observe_star_ns", "ns", float64(time.Since(t0))/steps)

	acc, err := stream.NewAccumulator(stream.Config{
		K: g.NumCategories(), Star: true, N: float64(g.N()),
		Replicates: uncert.Config{B: crawlBoot, Seed: 1},
	})
	if err != nil {
		return err
	}
	var barrier []float64
	for i := 0; i+crawlCheck <= 40_000; i += crawlCheck {
		for _, rec := range recs[i : i+crawlCheck] {
			if err := acc.Ingest(rec); err != nil {
				return err
			}
		}
		t0 := time.Now()
		snap, err := acc.Snapshot()
		if err != nil {
			return err
		}
		for c := 0; c < g.NumCategories(); c++ {
			snap.Boot.SizeCI(c, 0.95)
			snap.Boot.WithinCI(c, 0.95)
		}
		barrier = append(barrier, float64(time.Since(t0))/1e6)
	}
	e.set("crawl.checkpoint_ms", "ms", median(barrier))
	return nil
}
