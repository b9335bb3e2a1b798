package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/crawl"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/sample"
	"repro/internal/wire"
)

// crawl-paper: `topoestd -crawl -bootstrap 100` on the paper graph, a small
// boot crawl, then one budget-only crawl (no CI target, so the work is
// fixed) with two RW walkers and a stopping-rule checkpoint every 2000
// draws, started over POST /crawl and polled over /crawl/status. Afterwards
// a second job of the same daemon takes binary star records over HTTP at a
// fixed rate while a second client polls its /estimate?ci=0.95.
const (
	crawlBoot      = 100
	crawlCheck     = 2000
	crawlWalkers   = 2
	crawlBootDraws = 2000
	crawlEstimateR = 25
	feedBatch      = 50
	feedConns      = 2
	feedNominal    = 10_000 // records/s into the second job
	feedJob        = "feed"
)

// crawlSeeds derives the boot crawl's and the budget crawl's walker seeds
// from the workload seed.
func crawlSeeds(seed uint64) (bootSeed, runSeed uint64) {
	return mix(seed ^ 0xb007), mix(seed ^ 0xc4a1)
}

func crawlArgs(seed uint64) []string {
	bs, _ := crawlSeeds(seed)
	return []string{"-crawl", "-bootstrap", fmt.Sprint(crawlBoot),
		"-crawl-walkers", fmt.Sprint(crawlWalkers), "-crawl-sampler", crawl.SamplerRW,
		"-crawl-max-draws", fmt.Sprint(crawlBootDraws), "-crawl-check", fmt.Sprint(crawlCheck),
		"-crawl-seed", fmt.Sprint(bs), "-demo-seed", fmt.Sprint(paperSeed)}
}

// crawlStatus is the part of GET /crawl/status the workload reads.
type crawlStatus struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Stopped string `json:"stopped"`
		Draws   int    `json:"draws"`
	} `json:"result"`
}

// waitCrawl polls /crawl/status every 5 ms until the crawl is no longer
// running.
func (e *env) waitCrawl(ctx context.Context, c *http.Client, base string) (*crawlStatus, error) {
	for {
		var st crawlStatus
		if err := e.tally(getJSON(ctx, c, base+"/crawl/status", &st)); err != nil {
			return nil, err
		}
		if st.State != "running" {
			if st.State != "done" {
				return &st, fmt.Errorf("crawl ended in state %q: %s", st.State, st.Error)
			}
			return &st, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func runCrawlPaper(e *env) error {
	ctx := context.Background()
	var extraEnv []string
	if e.trace {
		extraEnv = []string{"GODEBUG=gctrace=1"}
	}
	d, err := e.setup(func(int) []string { return crawlArgs(e.seed) }, extraEnv)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	_, runSeed := crawlSeeds(e.seed)
	g, err := paperGraph()
	if err != nil {
		return err
	}
	c := newClient(1)
	if _, err := e.waitCrawl(ctx, c, d.url); err != nil {
		return fmt.Errorf("boot crawl: %w", err)
	}
	m0, err := scrape(ctx, c, d.url)
	if err != nil {
		return err
	}
	tp := &tracedPhase{route: "/jobs/{job}/ingest", job: feedJob, before: m0}
	tp.from = time.Now()

	// The budget crawl.
	budget := int(20_000 * e.seconds)
	req, err := json.Marshal(map[string]any{
		"max_draws": budget, "walkers": crawlWalkers, "sampler": crawl.SamplerRW,
		"seed": runSeed, "check_every": crawlCheck,
	})
	if err != nil {
		return err
	}
	quiesce()
	t0 := time.Now()
	if _, err := do(ctx, c, http.MethodPost, d.url+"/crawl", "application/json", req); e.tally(err) != nil {
		return err
	}
	st, err := e.waitCrawl(ctx, c, d.url)
	took := time.Since(t0)
	if err != nil {
		return err
	}
	if st.Result == nil || st.Result.Draws != budget {
		e.gate(fmt.Errorf("crawl reports %+v, want %d draws", st.Result, budget))
	}
	logf("crawl: %d draws in %.3f s = %.0f draws/s", budget, took.Seconds(), float64(budget)/took.Seconds())
	e.set("ingest_capacity_rps", "records/s", float64(budget)/took.Seconds())
	m1, err := scrape(ctx, c, d.url)
	if err != nil {
		return err
	}
	serverDeltas("crawl", m0, m1)

	// A second job of the same daemon fed over HTTP at a fixed rate.
	if _, err := do(ctx, c, http.MethodPost, d.url+"/jobs", "application/json", []byte(`{"name":"`+feedJob+`"}`)); e.tally(err) != nil {
		return err
	}
	walk, err := newWalkGen(g, true, mix(e.seed^0xfeed))
	if err != nil {
		return err
	}
	fixed := time.Duration(e.seconds / 2 * float64(time.Second))
	feedRecs := walk.records(feedBatch + int(feedNominal*fixed.Seconds()))
	bs, err := binaryEncoding.batches(feedRecs, feedBatch)
	if err != nil {
		return err
	}
	fc := newClient(feedConns)
	feedSend := e.sender(fc, d.url+"/jobs/"+feedJob+"/ingest", wire.RecordsContentType)
	// The first batch goes in before the timed phase, so no /estimate of
	// the phase finds the job empty (a 503).
	if err := feedSend(ctx, bs[0]); err != nil {
		return err
	}
	bs = bs[1:]
	quiesce()
	est := e.poll(ctx, d.url+"/jobs/"+feedJob+"/estimate?ci=0.95", crawlEstimateR, fixed)
	tp.ingest = runOpenLoop(ctx, feedConns, feedNominal/feedBatch, bs, feedSend)
	tp.est = <-est
	tp.to = time.Now()
	if tp.after, err = scrape(ctx, c, d.url); err != nil {
		return err
	}
	serverDeltas("feed", m1, tp.after)
	if err := e.ingestLatency(tp.ingest, feedBatch); err != nil {
		return err
	}
	if err := e.estimateLatency(tp.est); err != nil {
		return err
	}

	e.checkCrawlOracle(ctx, d, g, budget)
	feedDoc := e.checkFeedOracle(ctx, d, g, feedRecs[:feedBatch+tp.ingest.ackedRecords()])
	e.checkNoRejects(m0, tp.after)
	if e.trace {
		in := &replayInput{
			spec: job.Spec{Name: feedJob, K: g.NumCategories(), Star: true, N: float64(g.N()), Bootstrap: crawlBoot, BootstrapSeed: 1},
			enc:  binaryEncoding,
			prep: feedRecs[:feedBatch],
			reqs: bs,
		}
		e.metrics = map[string]metric{}
		if err := e.reportLayers(d, tp, in, "crawl-paper", feedDoc.Distinct, g); err != nil {
			return err
		}
		dm := m1.delta(m0)
		logf("crawl checkpoints: server %.3f ms mean over %.0f, in-process probe %.3f ms median",
			1e3*dm.sum("crawl_checkpoint_seconds_sum")/dm.sum("crawl_checkpoint_seconds_count"),
			dm.sum("crawl_checkpoint_seconds_count"), e.metrics["crawl.checkpoint_ms"].Value)
		return nil
	}

	if err := e.peakRSS(d); err != nil {
		return err
	}
	if d, err = e.restart(d, crawlArgs(e.seed), 1, nil, nil); err != nil {
		return err
	}
	_, err = d.stop()
	d = nil
	return err
}

// checkCrawlOracle replays the boot and budget crawls in process through
// crawl.Start into an accumulator configured like the daemon's default job
// and compares the daemon's estimate with the replay's.
func (e *env) checkCrawlOracle(ctx context.Context, d *daemon, g *graph.Graph, budget int) {
	doc, err := e.fetchEstimate(ctx, d.url, "", "")
	if err != nil {
		e.gate(err)
		return
	}
	if doc.Draws != crawlBootDraws+budget {
		e.gate(fmt.Errorf("daemon reports %d crawl draws, the crawls made %d", doc.Draws, crawlBootDraws+budget))
	}
	reg, err := job.NewRegistry("", 0, nil)
	if err != nil {
		e.gate(err)
		return
	}
	j, err := reg.Create(job.Spec{Name: job.DefaultName, K: g.NumCategories(), Star: true, N: float64(g.N()), Bootstrap: crawlBoot})
	if err != nil {
		e.gate(err)
		return
	}
	bootSeed, runSeed := crawlSeeds(e.seed)
	cfg := crawl.Config{
		Walkers: crawlWalkers, Sampler: crawl.SamplerRW, BurnIn: 1000, Seed: bootSeed, Star: true,
		Engine: crawl.EngineBootstrap, Level: 0.95, MaxDraws: crawlBootDraws, CheckEvery: crawlCheck,
		N: float64(g.N()),
	}
	for _, run := range []struct {
		seed  uint64
		draws int
	}{{bootSeed, crawlBootDraws}, {runSeed, budget}} {
		cfg.Seed, cfg.MaxDraws = run.seed, run.draws
		cr, err := crawl.Start(g, j.Acc(), cfg)
		if err != nil {
			e.gate(err)
			return
		}
		if _, err := cr.Wait(); err != nil {
			e.gate(err)
			return
		}
	}
	snap, err := j.Acc().Snapshot()
	if err != nil {
		e.gate(err)
		return
	}
	want := &expected{
		draws: snap.Draws, distinct: snap.Distinct,
		sizes: snap.Result.Sizes, within: snap.Within, weights: map[[2]int32]float64{},
	}
	snap.Result.Weights.ForEach(func(a, b int32, w float64) {
		if !math.IsNaN(w) {
			want.weights[[2]int32{a, b}] = w
		}
	})
	e.gate(want.check(doc))
}

// checkFeedOracle compares the feed job's estimate with the batch oracle.
func (e *env) checkFeedOracle(ctx context.Context, d *daemon, g *graph.Graph, recs []sample.NodeObservation) *estimateDoc {
	doc, err := e.fetchEstimate(ctx, d.url, "/jobs/"+feedJob, "")
	if err != nil {
		e.gate(err)
		return doc
	}
	o := newOracle(g.NumCategories(), true, float64(g.N()))
	if err := o.add(recs); err != nil {
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
