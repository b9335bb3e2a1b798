package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/crawl"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/sample"
	"repro/internal/stream"
)

func do(t *testing.T, srv http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// httpObs mirrors internal/job's deterministic observation stream: 31
// distinct nodes over 4 categories with star data on three records in four.
func httpObs(i int) sample.NodeObservation {
	node := int32(i % 31)
	c := node % 4
	obs := sample.NodeObservation{Node: node, Cat: c, Weight: 1 + float64(node%6)/5}
	if i%4 != 0 {
		obs.Deg = float64(3 + node%7)
		obs.NbrCat = []int32{(c + 1) % 4, (c + 2) % 4}
		obs.NbrCnt = []float64{2, 1}
	}
	return obs
}

// obsBody marshals records [lo, hi) of the shared stream as an ingest body.
func obsBody(t *testing.T, lo, hi int) string {
	t.Helper()
	recs := make([]sample.NodeObservation, 0, hi-lo)
	for i := lo; i < hi; i++ {
		recs = append(recs, httpObs(i))
	}
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

type jobListDoc struct {
	Jobs []map[string]any `json:"jobs"`
}

// TestJobsAPILifecycle drives the multi-tenant surface end to end: create,
// list, per-job ingest/estimate isolation, routing errors, and delete —
// with the legacy un-prefixed routes staying pinned to the default job.
func TestJobsAPILifecycle(t *testing.T) {
	srv, acc := testServer(t, 4, true, 800)

	// The adopted default job is listed from the start.
	var list jobListDoc
	mustDecode(t, get(t, srv, "/jobs").Body.Bytes(), &list)
	if len(list.Jobs) != 1 || list.Jobs[0]["name"] != "default" {
		t.Fatalf("initial jobs = %+v", list.Jobs)
	}

	// Spec errors: missing name, hostile name, bad shape.
	if w := post(t, srv, "/jobs", `{}`); w.Code != 400 {
		t.Fatalf("nameless create: %d %s", w.Code, w.Body)
	}
	if w := post(t, srv, "/jobs", `{"name":"a/b"}`); w.Code != 400 {
		t.Fatalf("hostile name: %d %s", w.Code, w.Body)
	}
	if w := post(t, srv, "/jobs", `{"name":"nok","k":0,"names":[]}`); w.Code != 400 {
		t.Fatalf("zero categories: %d %s", w.Code, w.Body)
	}

	// {"name":"alpha"} clones the daemon's template shape.
	w := post(t, srv, "/jobs", `{"name":"alpha"}`)
	if w.Code != 201 {
		t.Fatalf("create alpha: %d %s", w.Code, w.Body)
	}
	var doc map[string]any
	mustDecode(t, w.Body.Bytes(), &doc)
	if doc["name"] != "alpha" || doc["k"] != float64(4) || doc["crawl"] != "none" {
		t.Fatalf("alpha doc = %+v", doc)
	}
	if w := post(t, srv, "/jobs", `{"name":"alpha"}`); w.Code != 409 {
		t.Fatalf("duplicate create: %d %s", w.Code, w.Body)
	}
	// Overrides replace template fields.
	w = post(t, srv, "/jobs", `{"name":"beta","names":["u","v","w"],"star":false}`)
	if w.Code != 201 {
		t.Fatalf("create beta: %d %s", w.Code, w.Body)
	}
	mustDecode(t, w.Body.Bytes(), &doc)
	if doc["k"] != float64(3) || doc["scenario"] != scenarioName(false) {
		t.Fatalf("beta doc = %+v", doc)
	}
	// The retired "shards" key is accepted and ignored: the engine follows
	// the scenario.
	for body, epoch := range map[string]bool{
		`{"name":"gamma","shards":4}`:              true,
		`{"name":"gamma","star":false,"shards":1}`: false,
	} {
		if w := post(t, srv, "/jobs", body); w.Code != 201 {
			t.Fatalf("create %s: %d %s", body, w.Code, w.Body)
		}
		g, err := srv.jobs.Get("gamma")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := g.Acc().(*stream.EpochAccumulator); ok != epoch {
			t.Fatalf("%s: engine %T", body, g.Acc())
		}
		if w := do(t, srv, "DELETE", "/jobs/gamma", ""); w.Code != 200 {
			t.Fatalf("delete gamma: %d %s", w.Code, w.Body)
		}
	}

	mustDecode(t, get(t, srv, "/jobs").Body.Bytes(), &list)
	var names []string
	for _, d := range list.Jobs {
		names = append(names, d["name"].(string))
	}
	if len(names) != 3 || names[0] != "alpha" || names[1] != "beta" || names[2] != "default" {
		t.Fatalf("job list = %v, want sorted [alpha beta default]", names)
	}

	// Streams are isolated: alpha's records do not appear in the default
	// job, and the legacy routes keep serving the default job only.
	if w := post(t, srv, "/jobs/alpha/ingest", obsBody(t, 0, 40)); w.Code != 200 {
		t.Fatalf("alpha ingest: %d %s", w.Code, w.Body)
	}
	if w := post(t, srv, "/ingest", obsBody(t, 0, 10)); w.Code != 200 {
		t.Fatalf("legacy ingest: %d %s", w.Code, w.Body)
	}
	if acc.Draws() != 10 {
		t.Fatalf("default draws = %d, want 10", acc.Draws())
	}
	var est estimateDoc
	mustDecode(t, get(t, srv, "/jobs/alpha/estimate").Body.Bytes(), &est)
	if est.Draws != 40 {
		t.Fatalf("alpha estimate draws = %d, want 40", est.Draws)
	}
	mustDecode(t, get(t, srv, "/estimate").Body.Bytes(), &est)
	if est.Draws != 10 {
		t.Fatalf("legacy estimate draws = %d, want 10", est.Draws)
	}
	if w := get(t, srv, "/jobs/alpha/categorygraph.tsv"); w.Code != 200 {
		t.Fatalf("alpha tsv: %d", w.Code)
	}
	if w := get(t, srv, "/jobs/nope/estimate"); w.Code != 404 {
		t.Fatalf("unknown job route: %d", w.Code)
	}

	// /healthz carries the per-job section.
	var hz map[string]any
	mustDecode(t, get(t, srv, "/healthz").Body.Bytes(), &hz)
	jobs, ok := hz["jobs"].(map[string]any)
	if !ok || len(jobs) != 3 {
		t.Fatalf("healthz jobs = %+v", hz["jobs"])
	}
	if a, ok := jobs["alpha"].(map[string]any); !ok || a["draws"] != float64(40) {
		t.Fatalf("healthz alpha = %+v", jobs["alpha"])
	}

	// Deletion: the default job is protected, unknown names are 404, and a
	// deleted job's routes vanish.
	if w := do(t, srv, "DELETE", "/jobs/default", ""); w.Code != 400 {
		t.Fatalf("delete default: %d %s", w.Code, w.Body)
	}
	if w := do(t, srv, "DELETE", "/jobs/nope", ""); w.Code != 404 {
		t.Fatalf("delete unknown: %d", w.Code)
	}
	if w := do(t, srv, "DELETE", "/jobs/alpha", ""); w.Code != 200 {
		t.Fatalf("delete alpha: %d %s", w.Code, w.Body)
	}
	if w := get(t, srv, "/jobs/alpha/estimate"); w.Code != 404 {
		t.Fatalf("deleted job still routed: %d", w.Code)
	}
	mustDecode(t, get(t, srv, "/jobs").Body.Bytes(), &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("jobs after delete = %+v", list.Jobs)
	}
}

// TestJobsRestartResumeHTTP is the daemon-level durability contract: a
// server built over a checkpoint directory is shut down mid-stream and
// rebuilt; both the default job and a named job resume at their persisted
// generation, and after the tail of the stream the estimates match an
// uninterrupted server to 1e-9.
func TestJobsRestartResumeHTTP(t *testing.T) {
	const cut, end = 150, 300
	dir := t.TempDir()
	spec := job.Spec{Name: job.DefaultName, K: 4, Star: true, N: 800, Bootstrap: 16, BootstrapSeed: 9}

	mkSrv := func(d string) *server {
		t.Helper()
		reg, err := job.NewRegistry(d, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		def, err := reg.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		return newServerWithJobs(reg, def)
	}

	// The uninterrupted baseline sees each stream in one sitting. The named
	// job gets a shifted slice of the shared stream so the two jobs hold
	// genuinely different state.
	base := mkSrv("")
	if w := post(t, base, "/jobs", `{"name":"alpha"}`); w.Code != 201 {
		t.Fatalf("baseline create alpha: %d %s", w.Code, w.Body)
	}
	if w := post(t, base, "/ingest", obsBody(t, 0, end)); w.Code != 200 {
		t.Fatalf("baseline ingest: %d %s", w.Code, w.Body)
	}
	if w := post(t, base, "/jobs/alpha/ingest", obsBody(t, 1000, 1000+end)); w.Code != 200 {
		t.Fatalf("baseline alpha ingest: %d %s", w.Code, w.Body)
	}

	// First life: head of each stream, then a graceful shutdown (final
	// checkpoint per job).
	srv1 := mkSrv(dir)
	if w := post(t, srv1, "/jobs", `{"name":"alpha"}`); w.Code != 201 {
		t.Fatalf("create alpha: %d %s", w.Code, w.Body)
	}
	if w := post(t, srv1, "/ingest", obsBody(t, 0, cut)); w.Code != 200 {
		t.Fatalf("head ingest: %d %s", w.Code, w.Body)
	}
	if w := post(t, srv1, "/jobs/alpha/ingest", obsBody(t, 1000, 1000+cut)); w.Code != 200 {
		t.Fatalf("alpha head ingest: %d %s", w.Code, w.Body)
	}
	// Before any frame every acknowledged record is at risk; a job
	// without a checkpoint path does not report the field.
	type jobList struct {
		Jobs []map[string]any `json:"jobs"`
	}
	var durable, volatile jobList
	mustDecode(t, get(t, srv1, "/jobs").Body.Bytes(), &durable)
	for _, doc := range durable.Jobs {
		if doc["records_since_checkpoint"] != float64(cut) {
			t.Fatalf("job %v: records_since_checkpoint = %v, want %d", doc["name"], doc["records_since_checkpoint"], cut)
		}
	}
	mustDecode(t, get(t, base, "/jobs").Body.Bytes(), &volatile)
	if _, ok := volatile.Jobs[0]["records_since_checkpoint"]; ok {
		t.Fatalf("job without a checkpoint path reports records_since_checkpoint: %v", volatile.Jobs[0])
	}
	srv1.shutdown()

	// Second life: the default job restores during construction; the named
	// job restores when re-created through the same POST /jobs call a
	// supervisor would replay.
	srv2 := mkSrv(dir)
	var est estimateDoc
	mustDecode(t, get(t, srv2, "/estimate").Body.Bytes(), &est)
	if est.Draws != cut {
		t.Fatalf("default resumed at %d draws, want %d", est.Draws, cut)
	}
	w := post(t, srv2, "/jobs", `{"name":"alpha"}`)
	if w.Code != 201 {
		t.Fatalf("re-create alpha: %d %s", w.Code, w.Body)
	}
	var doc map[string]any
	mustDecode(t, w.Body.Bytes(), &doc)
	if doc["gen"] != float64(cut) || doc["records_since_checkpoint"] != float64(0) {
		t.Fatalf("alpha resumed at gen %v with %v records since checkpoint, want %d and 0",
			doc["gen"], doc["records_since_checkpoint"], cut)
	}
	// A re-create that contradicts the durable identity is a conflict.
	if w := post(t, srv2, "/jobs", `{"name":"alpha"}`); w.Code != 409 {
		t.Fatalf("duplicate after resume: %d", w.Code)
	}

	// Tail of each stream, then compare against the baseline.
	if w := post(t, srv2, "/ingest", obsBody(t, cut, end)); w.Code != 200 {
		t.Fatalf("tail ingest: %d %s", w.Code, w.Body)
	}
	if w := post(t, srv2, "/jobs/alpha/ingest", obsBody(t, 1000+cut, 1000+end)); w.Code != 200 {
		t.Fatalf("alpha tail ingest: %d %s", w.Code, w.Body)
	}
	for _, path := range []string{"/estimate", "/jobs/alpha/estimate"} {
		var got, want estimateDoc
		mustDecode(t, get(t, srv2, path).Body.Bytes(), &got)
		mustDecode(t, get(t, base, path).Body.Bytes(), &want)
		if got.Draws != want.Draws || got.Distinct != want.Distinct {
			t.Fatalf("%s: (draws, distinct) = (%d, %d), want (%d, %d)",
				path, got.Draws, got.Distinct, want.Draws, want.Distinct)
		}
		if len(got.Sizes) != len(want.Sizes) {
			t.Fatalf("%s: %d size entries, want %d", path, len(got.Sizes), len(want.Sizes))
		}
		for c := range got.Sizes {
			g, w := got.Sizes[c], want.Sizes[c]
			if !close9(g.Size, w.Size) {
				t.Errorf("%s size[%d] = %g, want %g", path, c, g.Size, w.Size)
			}
			if (g.CI == nil) != (w.CI == nil) {
				t.Fatalf("%s size[%d] CI presence mismatch", path, c)
			}
			if g.CI != nil && (!close9(g.CI[0], w.CI[0]) || !close9(g.CI[1], w.CI[1])) {
				t.Errorf("%s size[%d] ci = %v, want %v", path, c, *g.CI, *w.CI)
			}
		}
		for i := range got.Weights {
			if !close9(got.Weights[i].Weight, want.Weights[i].Weight) {
				t.Errorf("%s w(%d,%d) = %g, want %g", path,
					got.Weights[i].A, got.Weights[i].B, got.Weights[i].Weight, want.Weights[i].Weight)
			}
		}
		if (got.PopEstimate == nil) != (want.PopEstimate == nil) {
			t.Fatalf("%s pop estimate presence mismatch", path)
		}
		if got.PopEstimate != nil && !close9(*got.PopEstimate, *want.PopEstimate) {
			t.Errorf("%s pop = %g, want %g", path, *got.PopEstimate, *want.PopEstimate)
		}
	}
	srv2.shutdown()
}

// close9 is agreement to a relative (or, near zero, absolute) 1e-9.
func close9(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= 1e-9*scale
}

// blockedSource wraps a graph and stalls every neighbor query until its
// gate closes, holding any crawl over it provably in the running state.
type blockedSource struct {
	graph.Source
	gate chan struct{}
}

func (b *blockedSource) Neighbors(v int32) []int32 {
	<-b.gate
	return b.Source.Neighbors(v)
}

// TestConcurrentCrawlJobsHTTP runs crawls in two jobs at once: both report
// running independently, the 409 guard is per-job, and a job with a live
// crawl refuses deletion until the crawl drains.
func TestConcurrentCrawlJobsHTTP(t *testing.T) {
	g := mustDemoGraph(t)
	srv, acc := testServer(t, g.NumCategories(), true, float64(g.N()))
	src := &blockedSource{Source: g, gate: make(chan struct{})}
	srv.crawlSource = src
	srv.crawlDefaults = crawl.Config{
		Walkers: 2, Sampler: crawl.SamplerRW, Star: true, N: float64(g.N()),
		MaxDraws: 400, CheckEvery: 200, Seed: 11,
	}

	if w := post(t, srv, "/jobs", `{"name":"beta"}`); w.Code != 201 {
		t.Fatalf("create beta: %d %s", w.Code, w.Body)
	}

	// Both jobs accept a crawl; walkers stall on the gated source, so both
	// slots stay provably occupied for the conflict checks below.
	if w := post(t, srv, "/crawl", "{}"); w.Code != http.StatusAccepted {
		t.Fatalf("default crawl: %d %s", w.Code, w.Body)
	}
	if w := post(t, srv, "/jobs/beta/crawl", "{}"); w.Code != http.StatusAccepted {
		t.Fatalf("beta crawl: %d %s", w.Code, w.Body)
	}
	var st crawlStatusDoc
	mustDecode(t, get(t, srv, "/crawl/status").Body.Bytes(), &st)
	if st.State != "running" {
		t.Fatalf("default state = %q, want running", st.State)
	}
	mustDecode(t, get(t, srv, "/jobs/beta/crawl/status").Body.Bytes(), &st)
	if st.State != "running" {
		t.Fatalf("beta state = %q, want running", st.State)
	}
	if w := post(t, srv, "/crawl", "{}"); w.Code != http.StatusConflict {
		t.Fatalf("default double start: %d", w.Code)
	}
	if w := post(t, srv, "/jobs/beta/crawl", "{}"); w.Code != http.StatusConflict {
		t.Fatalf("beta double start: %d", w.Code)
	}
	if w := do(t, srv, "DELETE", "/jobs/beta", ""); w.Code != http.StatusConflict {
		t.Fatalf("delete mid-crawl: %d %s", w.Code, w.Body)
	}

	// Release the walkers and drain both crawls.
	close(src.gate)
	resDef, err := srv.def.Crawl().Wait()
	if err != nil {
		t.Fatal(err)
	}
	beta, err := srv.jobs.Get("beta")
	if err != nil {
		t.Fatal(err)
	}
	resBeta, err := beta.Crawl().Wait()
	if err != nil {
		t.Fatal(err)
	}
	mustDecode(t, get(t, srv, "/crawl/status").Body.Bytes(), &st)
	if st.State != "done" {
		t.Fatalf("default final state = %q", st.State)
	}
	mustDecode(t, get(t, srv, "/jobs/beta/crawl/status").Body.Bytes(), &st)
	if st.State != "done" {
		t.Fatalf("beta final state = %q", st.State)
	}

	// Each crawl landed its draws in its own job's accumulator.
	if acc.Draws() != resDef.Draws {
		t.Fatalf("default accumulator has %d draws, crawl ingested %d", acc.Draws(), resDef.Draws)
	}
	if beta.Acc().Draws() != resBeta.Draws {
		t.Fatalf("beta accumulator has %d draws, crawl ingested %d", beta.Acc().Draws(), resBeta.Draws)
	}

	// With the slot free the job deletes cleanly.
	if w := do(t, srv, "DELETE", "/jobs/beta", ""); w.Code != 200 {
		t.Fatalf("delete after crawl: %d %s", w.Code, w.Body)
	}
}
