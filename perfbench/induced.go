package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/job"
	"repro/internal/sample"
)

// induced-json-boot: JSON induced-subgraph records with peers, produced by
// a seeded random walk over the paper graph, sent in order over one paced
// connection (a record's peers must already be ingested) to a daemon with
// B = 200 bootstrap replicates and one-second checkpoints, while a second
// client polls /estimate?ci=0.95 and /sums. The run ends with SIGTERM and a
// restart on the same checkpoint directory.
const (
	inducedK         = 10
	inducedBoot      = 200
	inducedBatch     = 10
	inducedNominal   = 1500 // records/s of the fixed-rate phase
	inducedSLOms     = 300  // p99 objective of the capacity search
	inducedEstimateR = 25   // /estimate?ci=0.95 requests per second
	sumsEvery        = 2 * time.Second
)

func inducedArgs(dir string) []string {
	return []string{"-star=false", "-k", fmt.Sprint(inducedK), "-bootstrap", fmt.Sprint(inducedBoot),
		"-checkpoint-dir", dir, "-checkpoint-interval", "1s"}
}

func runInducedJSONBoot(e *env) error {
	ctx := context.Background()
	var extraEnv []string
	if e.trace {
		extraEnv = []string{"GODEBUG=gctrace=1"}
	}
	ckpt := func(i int) string { return filepath.Join(e.work, fmt.Sprintf("ckpt-%d", i)) }
	d, err := e.setup(func(i int) []string { return inducedArgs(ckpt(i)) }, extraEnv)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	g, err := paperGraph()
	if err != nil {
		return err
	}
	walk, err := newWalkGen(g, false, e.seed)
	if err != nil {
		return err
	}
	var sent []sample.NodeObservation // every record offered, in order
	next := func(n int) ([]batch, error) {
		recs := walk.records(n)
		sent = append(sent, recs...)
		return jsonEncoding.batches(recs, inducedBatch)
	}
	c := newClient(1)
	send := e.sender(c, d.url+"/ingest", "application/json")
	acked := 0
	m0, err := scrape(ctx, c, d.url)
	if err != nil {
		return err
	}

	warmN := int(150 * e.seconds)
	bs, err := next(warmN)
	if err != nil {
		return err
	}
	p := runOpenLoop(ctx, 1, math.Inf(1), bs, send)
	acked += p.ackedRecords()
	sat := float64(p.ackedRecords()) / p.elapsed.Seconds()
	logf("warm-up: %d records closed loop in %.2f s = %.0f rec/s", p.ackedRecords(), p.elapsed.Seconds(), sat)

	fixed := time.Duration(e.seconds / 2 * float64(time.Second))
	if bs, err = next(int(inducedNominal * fixed.Seconds())); err != nil {
		return err
	}
	tp := &tracedPhase{route: "/ingest", job: job.DefaultName}
	if tp.before, err = scrape(ctx, c, d.url); err != nil {
		return err
	}
	quiesce()
	tp.from = time.Now()
	est := e.poll(ctx, d.url+"/estimate?ci=0.95", inducedEstimateR, fixed)
	sums := e.poll(ctx, d.url+"/sums", float64(time.Second)/float64(sumsEvery), fixed)
	tp.ingest = runOpenLoop(ctx, 1, inducedNominal/inducedBatch, bs, send)
	acked += tp.ingest.ackedRecords()
	tp.est = <-est
	<-sums
	tp.to = time.Now()
	if tp.after, err = scrape(ctx, c, d.url); err != nil {
		return err
	}
	serverDeltas("fixed-rate", tp.before, tp.after)
	if err := e.ingestLatency(tp.ingest, inducedBatch); err != nil {
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
		doc := e.checkInducedOracle(ctx, d, sent, acked)
		e.checkNoRejects(m0, tp.after)
		in := &replayInput{
			spec: job.Spec{Name: job.DefaultName, K: inducedK, Star: false, Bootstrap: inducedBoot, BootstrapSeed: 1},
			enc:  jsonEncoding,
			prep: sent[:warmN],
			reqs: bs,
		}
		e.metrics = map[string]metric{}
		return e.reportLayers(d, tp, in, "induced-json-boot", doc.Distinct, g)
	}

	// Every step offers the same number of records, so the stream's state
	// advances alike in every run whatever rates the search tries.
	stepN := int(400 * e.seconds)
	err = e.capacity(sat, tp, 1, inducedBatch, inducedSLOms, func(rate float64) (*phase, error) {
		bs, err := next(stepN)
		if err != nil {
			return nil, err
		}
		quiesce()
		p := runOpenLoop(ctx, 1, rate/inducedBatch, bs, send)
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
	e.checkInducedOracle(ctx, d, sent, acked)
	e.checkNoRejects(m0, m3)

	// Restart on the same checkpoint directory, three times. Each cycle
	// first ingests one more record, so every SIGTERM writes a final
	// checkpoint frame, and the restored /estimate?ci=0.95 must equal the
	// one served before the stop.
	var before *estimateDoc
	prepare := func(d *daemon) error {
		bs, err := next(1)
		if err != nil {
			return err
		}
		if err := e.sender(newClient(1), d.url+"/ingest", "application/json")(ctx, bs[0]); err != nil {
			return err
		}
		before, err = e.fetchEstimate(ctx, d.url, "", "?ci=0.95")
		return err
	}
	verify := func(d *daemon) error {
		after, err := e.fetchEstimate(ctx, d.url, "", "?ci=0.95")
		if err != nil {
			return err
		}
		e.gate(sameEstimate(before, after))
		return nil
	}
	if d, err = e.restart(d, inducedArgs(ckpt(setupRuns-1)), 3, prepare, verify); err != nil {
		return err
	}
	_, err = d.stop()
	d = nil
	return err
}

// checkInducedOracle compares the daemon's estimate with the batch oracle
// over every record sent (all acknowledged when nothing failed).
func (e *env) checkInducedOracle(ctx context.Context, d *daemon, sent []sample.NodeObservation, acked int) *estimateDoc {
	doc, err := e.fetchEstimate(ctx, d.url, "", "")
	if err != nil {
		e.gate(err)
		return doc
	}
	if doc.Draws != acked {
		e.gate(fmt.Errorf("daemon reports %d draws, %d records were acknowledged", doc.Draws, acked))
	}
	o := newOracle(inducedK, false, 0)
	if err := o.add(sent); err != nil {
		e.gate(err)
		return doc
	}
	want, err := o.expect()
	if err != nil {
		e.gate(err)
		return doc
	}
	e.gate(want.check(doc))
	return doc
}
