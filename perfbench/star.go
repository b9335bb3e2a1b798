package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/job"
	"repro/internal/wire"
)

// star-bin-wide: open-loop TOPOREC1 star records in 500-record batches over
// two connections, drawn from a 2,000,000-node space with K = 20; the daemon
// runs without bootstrap or checkpoints, so nearly all of its time goes to
// HTTP, wire decode and stream ingest over a node directory far larger than
// the CPU caches.
const (
	starNodes     = 2_000_000
	starK         = 20
	starBatch     = 500
	starConns     = 2
	starNominal   = 75_000 // records/s of the fixed-rate phase
	starSLOms     = 100    // p99 objective of the capacity search
	starEstimateR = 50     // /estimate requests per second during the fixed-rate phase
)

func starArgs() []string { return []string{"-k", fmt.Sprint(starK)} }

// starFeed hands out consecutive record ranges of the star generator as
// encoded batches, remembering how far it got for the oracle.
type starFeed struct {
	gen  starGen
	next int
}

func (f *starFeed) batches(n int) ([]batch, error) {
	var out []batch
	for n > 0 {
		part := min(n, starBatch)
		b, err := binaryEncoding.batches(f.gen.records(f.next, part), starBatch)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
		f.next += part
		n -= part
	}
	return out, nil
}

// checkStarOracle replays records [0, n) through the batch oracle and
// compares the daemon's final estimate with it. The oracle is given each
// node's star data on every draw of a node that received it on any record:
// late star data is backfilled to the node's first draw by both the
// streaming and the batch paths, so the estimate is the same, and the batch
// path's backfill costs O(stored nodes) per late record, too slow at this
// scale.
func (e *env) checkStarOracle(ctx context.Context, d *daemon, g starGen, n, acked int) *estimateDoc {
	doc, err := e.fetchEstimate(ctx, d.url, "", "")
	if err != nil {
		e.gate(err)
		return doc
	}
	if doc.Draws != acked {
		e.gate(fmt.Errorf("daemon reports %d draws, %d records were acknowledged", doc.Draws, acked))
	}
	const chunk = 100_000
	hasStar := make([]bool, g.nodes)
	for i := 0; i < n; i += chunk {
		for _, r := range g.records(i, min(chunk, n-i)) {
			hasStar[r.Node] = hasStar[r.Node] || r.Deg != 0
		}
	}
	o := newOracle(starK, true, 0)
	for i := 0; i < n; i += chunk {
		recs := g.records(i, min(chunk, n-i))
		for j, r := range recs {
			if hasStar[r.Node] {
				recs[j] = g.node(r.Node)
			}
		}
		if err := o.add(recs); err != nil {
			e.gate(err)
			return doc
		}
	}
	want, err := o.expect()
	if err != nil {
		e.gate(err)
		return doc
	}
	e.gate(want.check(doc))
	return doc
}

func runStarBinWide(e *env) error {
	ctx := context.Background()
	var extraEnv []string
	if e.trace {
		extraEnv = []string{"GODEBUG=gctrace=1"}
	}
	d, err := e.setup(func(int) []string { return starArgs() }, extraEnv)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	feed := &starFeed{gen: starGen{seed: e.seed, nodes: starNodes, k: starK}}
	c := newClient(starConns)
	send := e.sender(c, d.url+"/ingest", wire.RecordsContentType)
	acked := 0
	m0, err := scrape(ctx, c, d.url)
	if err != nil {
		return err
	}

	// Warm-up, closed loop: fills the node directory to a steady size and
	// measures the saturation throughput the capacity search starts from.
	warmN := int(20_000 * e.seconds)
	warm, err := feed.batches(warmN)
	if err != nil {
		return err
	}
	p := runOpenLoop(ctx, starConns, math.Inf(1), warm, send)
	acked += p.ackedRecords()
	sat := float64(p.ackedRecords()) / p.elapsed.Seconds()
	logf("warm-up: %d records closed loop in %.2f s = %.0f rec/s", p.ackedRecords(), p.elapsed.Seconds(), sat)

	// Fixed-rate phase with concurrent /estimate polling.
	fixed := time.Duration(e.seconds / 4 * float64(time.Second))
	bs, err := feed.batches(int(starNominal * fixed.Seconds()))
	if err != nil {
		return err
	}
	tp := &tracedPhase{route: "/ingest", job: "default"}
	if tp.before, err = scrape(ctx, c, d.url); err != nil {
		return err
	}
	quiesce()
	tp.from = time.Now()
	est := e.poll(ctx, d.url+"/estimate", starEstimateR, fixed)
	tp.ingest = runOpenLoop(ctx, starConns, starNominal/starBatch, bs, send)
	acked += tp.ingest.ackedRecords()
	tp.est = <-est
	tp.to = time.Now()
	if tp.after, err = scrape(ctx, c, d.url); err != nil {
		return err
	}
	serverDeltas("fixed-rate", tp.before, tp.after)
	if err := e.ingestLatency(tp.ingest, starBatch); err != nil {
		return err
	}
	if err := e.estimateLatency(tp.est); err != nil {
		return err
	}
	// Peak RSS after the fixed input; the capacity search's input grows
	// with the capacity it finds, so it would couple the two metrics.
	if err := e.peakRSS(d); err != nil {
		return err
	}

	if e.trace {
		doc := e.checkStarOracle(ctx, d, feed.gen, feed.next, acked)
		e.checkNoRejects(m0, tp.after)
		g, err := paperGraph()
		if err != nil {
			return err
		}
		in := &replayInput{
			spec: job.Spec{Name: job.DefaultName, K: starK, Star: true},
			enc:  binaryEncoding,
			prep: feed.gen.records(0, warmN),
			reqs: bs,
		}
		e.metrics = map[string]metric{} // a traced run reports per-layer metrics only
		return e.reportLayers(d, tp, in, "star-bin-wide", doc.Distinct, g)
	}

	// Capacity search.
	// Steps last long enough to take in at least one collection of the
	// daemon's large heap, which sets the sustainable rate.
	stepLen := e.seconds / 6
	err = e.capacity(sat, tp, starConns, starBatch, starSLOms, func(rate float64) (*phase, error) {
		bs, err := feed.batches(int(rate * stepLen))
		if err != nil {
			return nil, err
		}
		quiesce()
		p := runOpenLoop(ctx, starConns, rate/starBatch, bs, send)
		acked += p.ackedRecords()
		return p, nil
	})
	if err != nil {
		return err
	}
	m3, err := scrape(ctx, c, d.url)
	if err != nil {
		return err
	}
	serverDeltas("capacity search", tp.after, m3)

	e.checkStarOracle(ctx, d, feed.gen, feed.next, acked)
	e.checkNoRejects(m0, m3)
	if mb, err := d.peakRSSMB(); err == nil {
		logf("daemon peak RSS after the capacity search: %.0f MB", mb)
	}
	d, err = e.restart(d, starArgs(), 1, nil, nil)
	if err != nil {
		return err
	}
	_, err = d.stop()
	d = nil
	return err
}
