package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stream"
)

func TestPercentileSampleCountRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	v, beyond := percentile(xs, 0.99)
	if v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if _, ok := reportable(xs, 0.99); !ok {
		t.Fatal("p99 of 1000 samples has 10 beyond it and must be reportable")
	}
	if _, ok := reportable(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it and must not be reportable")
	}
	if _, ok := reportable(xs[:100], 0.90); !ok {
		t.Fatal("p90 of 100 samples has 10 beyond it and must be reportable")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if v, n := percentile(nil, 0.5); !math.IsNaN(v) || n != 0 {
		t.Fatalf("percentile of nothing = %v, %d", v, n)
	}
}

func TestSearchCapacityBracket(t *testing.T) {
	const capRate = 1234.0
	for _, start := range [][2]float64{{1000, 1500}, {500, 1000}, {2000, 4000}, {50, 60}} {
		var probed []step
		got, steps, err := searchCapacity(start[0], start[1], 0.05, 40, func(rate float64) step {
			s := step{rate: rate, pass: rate <= capRate}
			probed = append(probed, s)
			return s
		})
		if err != nil {
			t.Fatalf("start %v: %v", start, err)
		}
		if len(steps) != len(probed) {
			t.Fatalf("start %v: %d steps reported, %d probed", start, len(steps), len(probed))
		}
		if got > capRate || got < capRate/1.05 {
			t.Fatalf("start %v: capacity %v, want within 5%% below %v", start, got, capRate)
		}
		// The answer must be a rate observed to pass, and some rate less
		// than 5% above it must have been observed to fail.
		passed, closeFail := false, false
		for _, s := range probed {
			if s.rate == got && s.pass {
				passed = true
			}
			if !s.pass && s.rate > got && s.rate/got-1 <= 0.05 {
				closeFail = true
			}
		}
		if !passed || !closeFail {
			t.Fatalf("start %v: bracket around %v not verified by probes %v", start, got, probed)
		}
	}
	if _, _, err := searchCapacity(1000, 1500, 0.05, 2, func(r float64) step { return step{rate: r, pass: r < 1234} }); err == nil {
		t.Fatal("a search cut off before its bracket closed must report an error")
	}
}

func TestJudge(t *testing.T) {
	mk := func(lat []time.Duration, late []time.Duration, failed int) *phase {
		p := &phase{rate: 100}
		for i := range lat {
			p.out = append(p.out, outcome{sent: late[i], done: late[i] + lat[i], records: 10, failed: i < failed})
		}
		return p
	}
	flat := make([]time.Duration, 300)
	lat := make([]time.Duration, 300)
	for i := range lat {
		lat[i] = time.Millisecond
	}
	if s := judge(mk(lat, flat, 0), 10, 50); !s.pass || s.rate != 1000 {
		t.Fatalf("an on-time phase within the objective must pass at 1000 rec/s: %v", s)
	}
	if s := judge(mk(lat, flat, 1), 10, 50); s.pass || s.failed != 1 {
		t.Fatalf("a phase with a failed request must fail: %v", s)
	}
	growing := make([]time.Duration, 300)
	for i := range growing {
		growing[i] = time.Duration(i) * 100 * time.Microsecond // backlog grows to 30 ms
	}
	if s := judge(mk(lat, growing, 0), 10, 50); s.pass || s.lateGrowMs < 15 {
		t.Fatalf("a phase whose lateness keeps growing must fail: %v", s)
	}
}

// stubDaemon is an ingest endpoint that serves one request at a time with
// a fixed service time, optionally stalling once and failing some requests.
type stubDaemon struct {
	mu      sync.Mutex
	service time.Duration
	stallAt int64 // request number that takes stall extra; 0 = never
	stall   time.Duration
	failN   int64 // every failN-th request answers 500 or 422; 0 = never
	n       atomic.Int64
}

func (s *stubDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.n.Add(1)
	d := s.service
	if n == s.stallAt {
		d += s.stall
	}
	time.Sleep(d)
	if s.failN > 0 && n%s.failN == 0 {
		code := http.StatusInternalServerError
		if n%(2*s.failN) == 0 {
			code = http.StatusUnprocessableEntity // a partial batch
		}
		http.Error(w, `{"error":"stub"}`, code)
		return
	}
	w.Write([]byte(`{"ingested":1}`))
}

func stubSender(e *env, url string, conns int) sendFunc {
	c := newClient(conns)
	return e.sender(c, url, "application/json")
}

func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	stub := &stubDaemon{service: time.Millisecond, stallAt: 20, stall: 60 * time.Millisecond}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	e := &env{}
	bs := make([]batch, 80)
	for i := range bs {
		bs[i] = batch{body: []byte("{}"), records: 1}
	}
	p := runOpenLoop(context.Background(), 1, 200, bs, stubSender(e, srv.URL, 1))
	if len(p.out) != len(bs) || p.failed() != 0 {
		t.Fatalf("%d outcomes, %d failed", len(p.out), p.failed())
	}
	// Request 20 (index 19) stalls 60 ms; the next ones were due every 5 ms
	// and could only go out late, and their latency counts from when they
	// were due.
	next := p.out[20]
	if next.lateness() < 40*time.Millisecond {
		t.Fatalf("request after the stall was only %v late", next.lateness())
	}
	if next.latency() < next.lateness()+time.Millisecond {
		t.Fatalf("latency %v does not include lateness %v", next.latency(), next.lateness())
	}
	if p.out[5].lateness() > 5*time.Millisecond {
		t.Fatalf("an early request was %v late without any stall", p.out[5].lateness())
	}
	// One stall is absorbed: the backlog does not keep growing.
	if g := p.latenessGrowthMs(); g > 5 {
		t.Fatalf("lateness growth %.1f ms after a single absorbed stall", g)
	}
	if attempted := e.attempted.Load(); attempted != int64(len(bs)) {
		t.Fatalf("%d requests tallied, %d sent", attempted, len(bs))
	}
}

func TestOpenLoopOverloadGrowsLateness(t *testing.T) {
	stub := &stubDaemon{service: 4 * time.Millisecond}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	bs := make([]batch, 120)
	p := runOpenLoop(context.Background(), 1, 400, bs, stubSender(&env{}, srv.URL, 1)) // 2.5 ms apart
	if g := p.latenessGrowthMs(); g < 50 {
		t.Fatalf("offered 400/s to a 250/s server, lateness grew only %.1f ms", g)
	}
}

func TestFailureCounting(t *testing.T) {
	stub := &stubDaemon{failN: 5}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	e := &env{}
	bs := make([]batch, 50)
	for i := range bs {
		bs[i] = batch{body: []byte("{}"), records: 3}
	}
	p := runOpenLoop(context.Background(), 2, 1000, bs, stubSender(e, srv.URL, 2))
	if p.failed() != 10 {
		t.Fatalf("%d failed requests, want 10 (every 5th: 500s and 422 partial batches)", p.failed())
	}
	if p.ackedRecords() != 40*3 {
		t.Fatalf("%d records acknowledged, want 120", p.ackedRecords())
	}
	if len(p.latenciesMs()) != 40 {
		t.Fatalf("%d latencies, want only the 40 acknowledged requests", len(p.latenciesMs()))
	}
	if e.attempted.Load() != 50 || e.failed.Load() != 10 {
		t.Fatalf("tally %d attempted %d failed, want 50 and 10", e.attempted.Load(), e.failed.Load())
	}
	// A transport error is a failure too.
	srv.Close()
	if err := e.sender(newClient(1), srv.URL, "")(context.Background(), batch{}); err == nil {
		t.Fatal("a request to a closed server must fail")
	}
	if e.failed.Load() != 11 {
		t.Fatalf("transport error not counted: %d failed", e.failed.Load())
	}
}

func TestCapacitySearchAgainstStub(t *testing.T) {
	// One request at a time, 2 ms each: 500 requests/s at most.
	stub := &stubDaemon{service: 2 * time.Millisecond}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	send := stubSender(&env{}, srv.URL, 1)
	got, steps, err := searchCapacity(200, 1000, 0.05, 12, func(rate float64) step {
		bs := make([]batch, int(rate*0.4))
		for i := range bs {
			bs[i] = batch{records: 1}
		}
		return judge(runOpenLoop(context.Background(), 1, rate, bs, send), 1, 50)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got < 250 || got > 520 {
		t.Fatalf("capacity %.0f req/s of a 500 req/s server (steps %v)", got, steps)
	}
}

// doc renders an accumulator snapshot the way the daemon's /estimate does
// (sizes, within, finite weights), for gate tests without a daemon.
func doc(t *testing.T, acc stream.Ingester) *estimateDoc {
	t.Helper()
	snap, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d := &estimateDoc{Draws: snap.Draws, Distinct: snap.Distinct}
	for c, s := range snap.Result.Sizes {
		w := snap.Within[c]
		d.Sizes = append(d.Sizes, struct {
			Cat      int32       `json:"cat"`
			Size     float64     `json:"size"`
			CI       *[2]float64 `json:"ci"`
			Within   *float64    `json:"within"`
			WithinCI *[2]float64 `json:"within_ci"`
		}{Cat: int32(c), Size: s, Within: &w})
	}
	snap.Result.Weights.ForEach(func(a, b int32, w float64) {
		if !math.IsNaN(w) {
			d.Weights = append(d.Weights, struct {
				A      int32       `json:"a"`
				B      int32       `json:"b"`
				Weight float64     `json:"w"`
				CI     *[2]float64 `json:"ci"`
			}{A: a, B: b, Weight: w})
		}
	})
	return d
}

func TestCorrectnessGate(t *testing.T) {
	g := starGen{seed: 7, nodes: 5000, k: 6}
	recs := g.records(0, 20000)
	acc, err := stream.NewAccumulator(stream.Config{K: 6, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.IngestBatch(recs); err != nil {
		t.Fatal(err)
	}
	served := doc(t, acc)
	o := newOracle(6, true, 0)
	if err := o.add(recs); err != nil {
		t.Fatal(err)
	}
	want, err := o.expect()
	if err != nil {
		t.Fatal(err)
	}
	if err := want.check(served); err != nil {
		t.Fatalf("the accumulator and the batch oracle disagree on the same records: %v", err)
	}

	// Perturbed oracles must trip the gate.
	perturb := []func(*expected){
		func(e *expected) { e.sizes[2] *= 1 + 1e-8 },
		func(e *expected) { e.within[1] += 1e-6 },
		func(e *expected) {
			for k := range e.weights {
				e.weights[k] *= 1 + 1e-7
				break
			}
		},
		func(e *expected) { e.draws++ },
		func(e *expected) { e.distinct-- },
	}
	for i, p := range perturb {
		bad, err := o.expect()
		if err != nil {
			t.Fatal(err)
		}
		p(bad)
		if err := bad.check(served); err == nil {
			t.Fatalf("perturbation %d of the oracle went unnoticed", i)
		}
	}

	// The restart gate: an identical estimate passes, a moved interval
	// does not.
	again := doc(t, acc)
	if err := sameEstimate(served, again); err != nil {
		t.Fatal(err)
	}
	again.Sizes[0].CI = &[2]float64{1, 2}
	if err := sameEstimate(served, again); err == nil {
		t.Fatal("a changed interval must fail the restart gate")
	}
}

func TestStarGenConsistentRedraws(t *testing.T) {
	g := starGen{seed: 3, nodes: 1000, k: 20}
	o := newOracle(20, true, 0)
	recs := g.records(0, 5000)
	bare := 0
	for _, r := range recs {
		if r.Deg == 0 {
			bare++
		}
		full := g.node(r.Node)
		if full.Cat != r.Cat || full.Weight != r.Weight {
			t.Fatalf("record of node %d disagrees with its per-node constants", r.Node)
		}
	}
	if bare < 1000 || bare > 1500 {
		t.Fatalf("%d of 5000 records without star data, want about a quarter", bare)
	}
	if err := o.add(recs); err != nil {
		t.Fatalf("generated records are inconsistent: %v", err)
	}
}

func TestGCStats(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "d.log")
	lines := []string{
		"gc 1 @0.010s 1%: 0.011+1.2+0.020 ms clock, 0.02+0.1/0.5/0+0.04 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		`time=2026-01-01T00:00:00Z level=INFO msg="topoestd serving"`,
		"gc 2 @1.500s 1%: 0.100+3.0+0.200 ms clock, 0.2+0.1/0.5/0+0.4 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		"gc 3 @2.500s 1%: 1.000+3.0+2.000 ms clock, 0.2+0.1/0.5/0+0.4 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P",
	}
	if err := os.WriteFile(log, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	d := &daemon{logPath: log, started: start}
	cycles, pause, err := gcStats(d, start.Add(time.Second), start.Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 1 || math.Abs(pause-0.3) > 1e-9 {
		t.Fatalf("gcStats = %d cycles, %.3f ms; want 1 cycle of 0.3 ms", cycles, pause)
	}
}
