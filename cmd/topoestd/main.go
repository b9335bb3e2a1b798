// Command topoestd is the serving daemon of the streaming-estimation
// subsystem: it keeps an internal/stream accumulator behind an HTTP API so
// that crawlers can push node observations as they are collected and
// consumers can read the live category-graph estimate at any time.
//
// Usage:
//
//	topoestd -k 10 -star -addr :8723
//	topoestd -names US,BR,DE,FR -star=false -N 88850
//	topoestd -demo -demo-draws 20000       # self-feeding smoke/demo mode
//	topoestd -crawl -crawl-walkers 8 -crawl-target 500   # adaptive crawl mode
//	topoestd -graph-file ba1m.pack -crawl -qps 2000 -query-cost 2ms
//	                                       # out-of-core + API-crawl simulation
//
// Flags:
//
//	-addr        listen address (default :8723)
//	-k           number of categories (required unless -names or -demo)
//	-names       comma-separated category names (sets -k)
//	-star        measurement scenario: star (default) or induced (=false).
//	             The scenario picks the ingest engine: star streams run the
//	             epoch-merged accumulator, whose writers fill private local
//	             epochs and fold them into the published view exactly at
//	             flush (multi-core ingest); induced streams run the
//	             single-lock accumulator
//	-N           population size |V|; 0 = unknown → relative sizes, with the
//	             §4.3 collision estimate of N reported alongside
//	-size        size estimator: auto|induced|star|star-pooled
//	-bootstrap   maintain this many streaming-bootstrap replicates so that
//	             /estimate can serve confidence intervals (0 = off; 50 for
//	             standard errors, 200 for stable 95% CIs; ingest cost grows
//	             by O(B) per record)
//	-bootstrap-seed  seed of the deterministic per-(node, replicate)
//	             Poisson weights (default 1); replicas of the daemon with
//	             the same seed produce identical replicate estimates
//	-demo        generate the paper's §6.2.1 graph and run a fixed-budget
//	             one-walker crawl of it through the adaptive controller
//	             (throttled rounds, so the live estimate is watchable)
//	-demo-draws  total draws the demo crawl ingests (default 20000)
//	-demo-seed   demo graph and crawl seed (default 1)
//	-crawl       adaptive crawl mode: generate the paper graph and crawl it
//	             with internal/crawl until the CI targets are met (or the
//	             budget runs out); further jobs start via POST /crawl
//	-graph-file  crawl a packed out-of-core graph (.pack built by
//	             cmd/graphpack) instead of generating the paper graph; the
//	             daemon pages it through an LRU block cache, so the graph
//	             may be far larger than RAM (crawl/demo modes)
//	-qps         wrap the crawl backend in a rate-limited API simulation:
//	             global neighbor-query budget in queries/second (0 = off)
//	-query-cost  per-neighbor-query latency of the simulation (e.g. 5ms)
//	-crawl-walkers       concurrent walkers (default 4)
//	-crawl-sampler       RW | MHRW | S-WRW (default RW)
//	-crawl-engine        stopping CI engine: bootstrap | replication
//	-crawl-target        category-size CI half-width stop threshold (0=off)
//	-crawl-within-target within-weight CI half-width threshold (0=off)
//	-crawl-cats          category indices the targets apply to (empty=all)
//	-crawl-level         stopping CI confidence level (default 0.95)
//	-crawl-max-draws     hard draw budget (default 200000)
//	-crawl-min-draws     no target-stop before this many draws
//	-crawl-check         checkpoint cadence in draws (default 2000)
//	-crawl-burnin        per-walker burn-in steps (default 1000)
//	-crawl-seed          master walker seed (default 1)
//	-checkpoint-dir      append durable checkpoints of every job's resumable
//	             state to <dir>/<job>.ckpt and, on restart with the same
//	             directory, resume each job exactly where its last intact
//	             frame left it — generation, estimates and bootstrap
//	             replicates match an uninterrupted run to ≤ 1e-9. A frame
//	             torn by a crash mid-append is detected by checksum and
//	             discarded; the file is truncated back to its valid prefix
//	-checkpoint-interval periodic checkpoint cadence (default 30s; frames
//	             are skipped while a job's state has not advanced). A final
//	             checkpoint is always written on graceful shutdown
//	-checkpoint-max-frames compact a job's checkpoint file down to its
//	             newest frame (atomically: temp file + rename) once it
//	             holds more than this many frames, bounding the file at
//	             max-frames+1 frames instead of growing without limit
//	             (default 0 = never compact)
//	-restore-jobs        at boot, restore every named job that left a
//	             checkpoint file in -checkpoint-dir — no POST /jobs
//	             re-creation needed after a crash or restart; each job's
//	             spec is recovered from its newest intact frame
//	-pprof       expose net/http/pprof under /debug/pprof/ (opt-in)
//	-log-format  structured log format: text (default) or json
//	-log-level   minimum log level: debug|info|warn|error (default info)
//
// Endpoints:
//
// The daemon is multi-tenant: every estimation stream is a named job with
// its own accumulator, crawl slot and checkpoint file. The un-prefixed
// routes below alias the "default" job (created at startup from the flags),
// so a single-tenant deployment uses the daemon exactly as before. Further
// jobs are managed over HTTP:
//
//	POST   /jobs             create a job. Body: {"name":"eu-crawl"} plus
//	                         optional overrides of the daemon's flag
//	                         defaults — "k", "names", "star", "n", "size",
//	                         "bootstrap", "bootstrap_seed". With
//	                         -checkpoint-dir, a job whose checkpoint file
//	                         already exists resumes from it (the persisted
//	                         identity — k, star, bootstrap — must match:
//	                         mismatch is a 409). 201 on success, 409 when
//	                         the name is taken
//	GET    /jobs             list jobs with stream position, crawl state
//	                         and checkpoint state, including
//	                         "records_since_checkpoint": the acknowledged
//	                         records a crash would lose
//	DELETE /jobs/{job}       delete a job and its checkpoint file — the
//	                         stream is discarded durably. 400 for "default",
//	                         409 while the job's crawl is running
//	     * /jobs/{job}/...   every per-stream route below, scoped to the
//	                         job: ingest, estimate, categorygraph.tsv, sums,
//	                         crawl, crawl/status
//
//	POST /ingest             body: one NodeObservation JSON object, or an
//	                         array of them; returns {"ingested":…,"draws":…}.
//	                         With Content-Type application/x-topoest-records
//	                         the body is instead one TOPOREC1 binary batch
//	                         (internal/wire) — same responses, same 422
//	                         valid-prefix retry contract, decoded without
//	                         per-record allocation
//	GET  /estimate           live estimate: sizes, weights, within-category
//	                         densities, population estimate, convergence;
//	                         with -bootstrap, every entry also carries a
//	                         percentile confidence interval ("ci":[lo,hi])
//	                         at the level of the ?ci= query parameter
//	                         (default 0.95) — ?ci= without -bootstrap is a
//	                         400
//	GET  /categorygraph.tsv  the estimate as a category-graph TSV (the same
//	                         format cmd/topoest emits)
//	GET  /healthz            liveness plus build/workload context: status,
//	                         draws, distinct, accumulator mode of the
//	                         default job (epoch-merged for star,
//	                         single-lock for induced), uptime, Go
//	                         version, goroutine count, build info, the
//	                         cumulative ingest/crawl counters, and a "jobs"
//	                         section with each job's document (as in
//	                         GET /jobs)
//	GET  /metrics            Prometheus text exposition of every metric in
//	                         the process: ingest, snapshot, crawl, backend
//	                         cache and HTTP-surface instrumentation
//	POST /crawl              start an adaptive crawl against the generated
//	                         graph, streaming into the job's accumulator
//	                         (crawl/demo mode only). One crawl runs at a
//	                         time per job — starting a second in the same
//	                         job is a 409 — while crawls in different jobs
//	                         run concurrently. The JSON body
//	                         optionally overrides the flag defaults:
//	                         {"walkers":8,"sampler":"RW","engine":"bootstrap",
//	                         "size_target":500,"size_cats":[0,1],
//	                         "within_target":0.05,"within_cats":[2],
//	                         "level":0.95,"max_draws":200000,
//	                         "min_draws":0,"check_every":2000,
//	                         "burn_in":1000,"thin":1,"seed":7}
//	GET  /crawl/status       live job state: {"state":"none|running|done|
//	                         failed","draws":…,"max_draws":…,
//	                         "queries":… (present when -qps/-query-cost
//	                         meter the backend; also echoed in "result"),
//	                         "walkers":[{"walker":0,"draws":…,"node":…}],
//	                         "checkpoint":{"seq":…,"draws":…,
//	                         "size_hw":[…],"within_hw":[…],
//	                         "targets_met":…},"result":{"stopped":
//	                         "target|budget","draws":…,"checkpoints":…}}
//	                         — half-width entries are null until the engine
//	                         resolves the estimand
//
// The observation wire format is sample.NodeObservation: under star
// sampling {"node":7,"weight":3,"cat":1,"deg":5,"nbr_cat":[0,1],
// "nbr_cnt":[2,3]}, under induced sampling {"node":7,"cat":1,
// "peers":[3,4]} where peers lists previously ingested neighbors (each edge
// of the growing induced subgraph reported exactly once). Weight 0 or
// absent means 1 on a node's first record and inherits the node's recorded
// weight on re-draws (negative or NaN weights are rejected); cat -1 means
// uncategorized. Star neighbor data may ride on every record of a node
// (concurrent crawlers) — the first to arrive is recorded and identical
// re-deliveries pass, but a record whose cat, explicit weight, or star
// data contradicts the node's first observation is rejected. For star jobs
// POST /ingest validates and accumulates each batch in a writer-private
// local epoch in record order and flushes the epoch into the published
// estimate before responding. Every job keeps one ack contract: an
// acknowledged record is visible to the next /estimate and, with
// -checkpoint-dir, durable at the next checkpoint; a crash (SIGKILL) loses
// the records acknowledged since the last checkpoint, which each job
// document reports as "records_since_checkpoint".
//
// # Ingest error semantics and the retry-safe protocol
//
// Records of one POST body are applied strictly in order, and application
// stops at the first invalid record — the valid prefix STAYS APPLIED. The
// daemon reports how far it got: every record-level rejection (HTTP 422)
// has the JSON body
//
//	{"error":"…", "ingested":N, "total":M, "index":I}
//
// where "ingested" is the number of leading records applied and
// "index" is the position of the offending record. The two differ only for
// pre-validation failures (a record missing "cat"), which are detected
// before anything is applied: there "ingested" is 0 while "index" points
// at the offender. Malformed JSON is rejected whole with HTTP 400 and body
// {"error":"…"} — nothing was applied and no record indices exist. A body
// over the route's limit (64 MiB for /ingest, 1 MiB for the JSON bodies of
// POST /crawl and POST /jobs) is rejected whole with HTTP 413 and the same
// {"error":"…"} body.
//
// A retrying client MUST NOT resend the whole batch after a 422 — that
// would double-ingest the applied prefix and silently skew the estimate.
// The retry-safe protocol is: drop the first "ingested" records, fix or
// discard the record at index "index", and resend the rest. Idempotent
// replay is not provided by the server; exactly-once ingestion is the
// client's contract to keep.
//
// # Flush conflicts (HTTP 409)
//
// Records of a star job validate against the node constants known when
// they arrive. If a concurrent writer fixes one of their nodes' constants
// (category, weight, star data) to contradicting values before this
// request's flush, the request's draws of that node are dropped at the
// flush and counted under stream_ingest_rejected_total{reason=
// "flush_conflict"}. The request then fails with HTTP 409 and the body
//
//	{"error":"…", "applied":A, "dropped":D, "total":M}
//
// where A records were applied and D dropped. The drops are per node, not a
// prefix, so there is no retry index; if the batch also stopped at an
// invalid record, "index" (= A + D) names it as in a 422.
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/crawl"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
	"repro/internal/wire"
)

// cli holds the parsed command line.
type cli struct {
	addr     string
	k        int
	names    string
	star     bool
	popN     float64
	size     string
	boot     int
	bootSeed uint64

	demo      bool
	demoDraws int
	demoSeed  uint64

	graphFile string
	qps       float64
	queryCost time.Duration

	crawlMode    bool
	crawlWalkers int
	crawlSampler string
	crawlEngine  string
	crawlTarget  float64
	crawlWithin  float64
	crawlCats    string
	crawlLevel   float64
	crawlMax     int
	crawlMin     int
	crawlCheck   int
	crawlBurnIn  int
	crawlSeed    uint64

	mergeFrom     string
	mergeInterval time.Duration
	mergeTimeout  time.Duration
	mergeMaxStale time.Duration

	checkpointDir      string
	checkpointInterval time.Duration
	checkpointMaxF     int
	restoreJobs        bool

	pprofOn   bool
	logFormat string
	logLevel  string
}

func main() {
	var c cli
	flag.StringVar(&c.addr, "addr", ":8723", "listen address")
	flag.IntVar(&c.k, "k", 0, "number of categories")
	flag.StringVar(&c.names, "names", "", "comma-separated category names (sets -k)")
	flag.BoolVar(&c.star, "star", true, "star scenario (false = induced subgraph)")
	flag.Float64Var(&c.popN, "N", 0, "population size |V| (0 = unknown, relative sizes)")
	flag.StringVar(&c.size, "size", "auto", "size estimator: auto|induced|star|star-pooled")
	flag.IntVar(&c.boot, "bootstrap", 0, "streaming-bootstrap replicates for /estimate?ci= intervals (0 = off)")
	flag.Uint64Var(&c.bootSeed, "bootstrap-seed", 1, "seed of the deterministic bootstrap weights")
	flag.BoolVar(&c.demo, "demo", false, "self-feed a fixed-budget random-walk crawl of the §6.2.1 paper graph")
	flag.IntVar(&c.demoDraws, "demo-draws", 20000, "demo: total draws to ingest")
	flag.Uint64Var(&c.demoSeed, "demo-seed", 1, "demo: graph and crawl seed")
	flag.StringVar(&c.graphFile, "graph-file", "", "crawl a packed out-of-core graph (.pack from cmd/graphpack) instead of generating the paper graph")
	flag.Float64Var(&c.qps, "qps", 0, "simulate a remote API: global neighbor-query budget in queries/second (0 = unlimited)")
	flag.DurationVar(&c.queryCost, "query-cost", 0, "simulate a remote API: per-neighbor-query latency (e.g. 5ms; 0 = none)")
	flag.BoolVar(&c.crawlMode, "crawl", false, "adaptive crawl mode: generate the paper graph and crawl it until the CI targets are met")
	flag.IntVar(&c.crawlWalkers, "crawl-walkers", 4, "crawl: concurrent walkers")
	flag.StringVar(&c.crawlSampler, "crawl-sampler", "RW", "crawl: sampler kernel (RW|MHRW|S-WRW)")
	flag.StringVar(&c.crawlEngine, "crawl-engine", "bootstrap", "crawl: stopping CI engine (bootstrap|replication)")
	flag.Float64Var(&c.crawlTarget, "crawl-target", 0, "crawl: stop when every targeted category-size CI half-width ≤ this (0 = untargeted)")
	flag.Float64Var(&c.crawlWithin, "crawl-within-target", 0, "crawl: within-weight CI half-width target (0 = untargeted)")
	flag.StringVar(&c.crawlCats, "crawl-cats", "", "crawl: comma-separated category indices the targets apply to (empty = all)")
	flag.Float64Var(&c.crawlLevel, "crawl-level", 0.95, "crawl: confidence level of the stopping CIs")
	flag.IntVar(&c.crawlMax, "crawl-max-draws", 200000, "crawl: hard draw budget")
	flag.IntVar(&c.crawlMin, "crawl-min-draws", 0, "crawl: never target-stop before this many draws")
	flag.IntVar(&c.crawlCheck, "crawl-check", 2000, "crawl: checkpoint cadence in draws")
	flag.IntVar(&c.crawlBurnIn, "crawl-burnin", 1000, "crawl: per-walker burn-in steps")
	flag.Uint64Var(&c.crawlSeed, "crawl-seed", 1, "crawl: master walker seed")
	flag.StringVar(&c.mergeFrom, "merge-from", "", "coordinator mode: comma-separated worker base URLs to poll for /sums and merge (read-only daemon)")
	flag.DurationVar(&c.mergeInterval, "merge-interval", 2*time.Second, "coordinator: poll period")
	flag.DurationVar(&c.mergeTimeout, "merge-timeout", 2*time.Second, "coordinator: per-worker pull timeout")
	flag.DurationVar(&c.mergeMaxStale, "merge-max-stale", time.Minute, "coordinator: drop a dead worker's last-good state from the pool after this age")
	flag.StringVar(&c.checkpointDir, "checkpoint-dir", "", "append durable per-job checkpoints to <dir>/<job>.ckpt and resume from them on restart (empty = off)")
	flag.DurationVar(&c.checkpointInterval, "checkpoint-interval", 30*time.Second, "periodic checkpoint cadence (a final checkpoint is always written on graceful shutdown)")
	flag.IntVar(&c.checkpointMaxF, "checkpoint-max-frames", 0, "compact a job's checkpoint file down to its newest frame once it holds more than this many frames (0 = never compact)")
	flag.BoolVar(&c.restoreJobs, "restore-jobs", false, "restore every named job with a checkpoint file in -checkpoint-dir at boot, without requiring POST /jobs re-creation")
	flag.BoolVar(&c.pprofOn, "pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in: profiling reveals internals)")
	flag.StringVar(&c.logFormat, "log-format", "text", "structured log format: text or json")
	flag.StringVar(&c.logLevel, "log-level", "info", "minimum log level: debug|info|warn|error")
	flag.Parse()
	if err := c.run(); err != nil {
		fmt.Fprintln(os.Stderr, "topoestd:", err)
		os.Exit(1)
	}
}

func (c *cli) run() error {
	logger, err := newLogger(c.logFormat, c.logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	method, err := parseSizeMethod(c.size)
	if err != nil {
		return err
	}
	bc := uncert.Config{B: c.boot, Seed: c.bootSeed}
	if bc.B < 0 {
		return fmt.Errorf("need -bootstrap ≥ 0, got %d", bc.B)
	}
	if c.qps < 0 {
		return fmt.Errorf("need -qps ≥ 0, got %g", c.qps)
	}
	if c.queryCost < 0 {
		return fmt.Errorf("need -query-cost ≥ 0, got %v", c.queryCost)
	}
	if c.checkpointInterval <= 0 {
		return fmt.Errorf("need -checkpoint-interval > 0, got %v", c.checkpointInterval)
	}
	if c.checkpointMaxF < 0 {
		return fmt.Errorf("need -checkpoint-max-frames ≥ 0, got %d", c.checkpointMaxF)
	}
	if c.checkpointDir == "" && (c.restoreJobs || c.checkpointMaxF > 0) {
		return fmt.Errorf("-restore-jobs and -checkpoint-max-frames operate on checkpoint files; combine them with -checkpoint-dir")
	}
	if c.mergeFrom != "" {
		if c.demo || c.crawlMode {
			return fmt.Errorf("-merge-from is a read-only coordinator; it cannot be combined with -demo or -crawl")
		}
		if c.boot != 0 {
			return fmt.Errorf("-bootstrap has no effect on a coordinator: it adopts the workers' bootstrap configuration (drop the flag)")
		}
		if c.checkpointDir != "" {
			return fmt.Errorf("-checkpoint-dir has no effect on a coordinator: its durable state lives on the workers it polls")
		}
		return c.runMergeMode(method)
	}
	if c.demo || c.crawlMode {
		return c.runCrawlMode(method, bc)
	}
	if c.graphFile != "" || c.qps > 0 || c.queryCost > 0 {
		return fmt.Errorf("-graph-file, -qps and -query-cost configure the crawl backend; combine them with -crawl or -demo")
	}
	k, names, err := c.categories()
	if err != nil {
		return err
	}
	reg, err := job.NewRegistry(c.checkpointDir, c.checkpointInterval, slog.Default())
	if err != nil {
		return err
	}
	reg.SetMaxFrames(c.checkpointMaxF)
	def, err := reg.Create(job.Spec{
		Name: job.DefaultName, K: k, Names: names, Star: c.star, N: c.popN,
		Size: c.size, Bootstrap: bc.B, BootstrapSeed: bc.Seed,
	})
	if err != nil {
		return err
	}
	if c.restoreJobs {
		restored, err := reg.RestoreAll()
		if err != nil {
			return err
		}
		slog.Info("named jobs restored from checkpoints", "count", len(restored))
	}
	srv := newServerWithJobs(reg, def)
	reg.Start()
	if c.pprofOn {
		registerPprof(srv.mux)
	}
	slog.Info("topoestd serving",
		"addr", c.addr, "k", k, "scenario", scenarioName(c.star),
		"ingest", ingestMode(def.Acc()), "bootstrap_b", bc.B,
		"checkpoint_dir", c.checkpointDir, "gen", def.Acc().Gen())
	return listenAndServe(c.addr, srv, srv.shutdown)
}

// categories resolves -k / -names into the partition the daemon serves.
func (c *cli) categories() (int, []string, error) {
	k := c.k
	var names []string
	if c.names != "" {
		names = strings.Split(c.names, ",")
		k = len(names)
	}
	if k < 1 {
		return 0, nil, fmt.Errorf("need -k or -names (got %d categories)", k)
	}
	return k, names, nil
}

// runMergeMode starts the coordinator of the distributed tier: a read-only
// daemon whose accumulator is a stream.Pool rebuilt from the /sums exports
// of the -merge-from workers. Every serving endpoint (/estimate with exact
// merged-bootstrap CIs, /categorygraph.tsv, /healthz, /metrics, /sums for a
// higher coordinator tier) works unchanged over the pool; /ingest answers
// 403.
func (c *cli) runMergeMode(method core.SizeMethod) error {
	k, names, err := c.categories()
	if err != nil {
		return err
	}
	if c.mergeInterval <= 0 || c.mergeTimeout <= 0 || c.mergeMaxStale <= 0 {
		return fmt.Errorf("need -merge-interval, -merge-timeout and -merge-max-stale > 0")
	}
	pool, err := stream.NewPool(stream.Config{K: k, Star: c.star, N: c.popN, Size: method})
	if err != nil {
		return err
	}
	m, err := newMerger(pool, strings.Split(c.mergeFrom, ","), c.mergeInterval, c.mergeTimeout, c.mergeMaxStale)
	if err != nil {
		return err
	}
	srv := newServer(pool, names)
	srv.merger = m
	if c.pprofOn {
		registerPprof(srv.mux)
	}
	go m.run()
	urls := make([]string, len(m.workers))
	for i, w := range m.workers {
		urls[i] = w.url
	}
	slog.Info("topoestd merge coordinator",
		"addr", c.addr, "k", k, "scenario", scenarioName(c.star), "workers", urls,
		"interval", c.mergeInterval, "timeout", c.mergeTimeout, "max_stale", c.mergeMaxStale)
	return listenAndServe(c.addr, srv, srv.shutdown)
}

// listenAndServe wraps the handler in an http.Server with read and write
// timeouts, so a slow or stalled client cannot pin a connection (and its
// goroutine) forever — the bare http.ListenAndServe has none. On SIGTERM or
// SIGINT it shuts down gracefully: the listener closes (no new ingest), every
// in-flight request finishes (bounded by 10s), and then onShutdown runs —
// which is where the server writes its final checkpoints before the process
// exits, so no acknowledged record dies with the process.
func listenAndServe(addr string, h http.Handler, onShutdown func()) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute, // ingest bodies are ≤ 64 MiB
		WriteTimeout:      time.Minute,     // responses are O(K²) small
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately instead of re-queuing
		slog.Info("signal received; draining connections")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(sctx)
		if onShutdown != nil {
			onShutdown()
		}
		slog.Info("shutdown complete")
		return err
	}
}

// runCrawlMode builds the paper's synthetic graph and drives the adaptive
// crawl controller against it — the end-to-end demonstration of the
// subsystem. With -crawl the job stops itself on the configured CI-width
// targets; with plain -demo it degrades to the fixed-budget special case
// (one walker, -demo-draws total, throttled rounds for a watchable live
// estimate), replacing the former ad-hoc fixed-draw ingest loop. Subsequent
// jobs can be launched over HTTP via POST /crawl.
func (c *cli) runCrawlMode(method core.SizeMethod, bc uncert.Config) error {
	src, names, err := c.crawlBackend()
	if err != nil {
		return err
	}
	// The adaptive flag-derived config doubles as the defaults of POST
	// /crawl jobs — even under plain -demo, where the auto-started job
	// itself uses the throttled fixed-budget demo config (an HTTP-started
	// job must not inherit the demo pacing). Both carry the daemon's N and
	// size method: the stopping engines evaluate CI widths against them,
	// and a scale mismatch with the accumulator is rejected by crawl.Start.
	adaptive, err := c.adaptiveCrawlConfig()
	if err != nil {
		return err
	}
	adaptive.N, adaptive.Size = float64(src.NumNodes()), method
	adaptive.Logger = slog.Default()
	jobCfg := adaptive
	if !c.crawlMode {
		jobCfg = c.demoCrawlConfig()
		jobCfg.N, jobCfg.Size = float64(src.NumNodes()), method
		jobCfg.Logger = slog.Default()
	}
	targeted := jobCfg.SizeTarget > 0 || jobCfg.WithinTarget > 0
	if targeted && jobCfg.Engine == crawl.EngineBootstrap && bc.B == 0 {
		// The bootstrap stopping engine reads CI widths off the daemon's
		// accumulator; a targeted crawl without -bootstrap defaults to 100
		// replicates rather than failing startup.
		bc.B = 100
		slog.Info("crawl targets set without -bootstrap; defaulting replicates", "bootstrap_b", bc.B)
	}
	reg, err := job.NewRegistry(c.checkpointDir, c.checkpointInterval, slog.Default())
	if err != nil {
		return err
	}
	reg.SetMaxFrames(c.checkpointMaxF)
	def, err := reg.Create(job.Spec{
		Name: job.DefaultName, K: src.NumCategories(), Names: names, Star: c.star,
		N: float64(src.NumNodes()), Size: c.size,
		Bootstrap: bc.B, BootstrapSeed: bc.Seed,
	})
	if err != nil {
		return err
	}
	if c.restoreJobs {
		restored, err := reg.RestoreAll()
		if err != nil {
			return err
		}
		slog.Info("named jobs restored from checkpoints", "count", len(restored))
	}
	srv := newServerWithJobs(reg, def)
	srv.crawlSource = src
	srv.crawlDefaults = adaptive
	cj, err := crawl.Start(src, def.Acc(), jobCfg)
	if err != nil {
		if errors.Is(err, sample.ErrNoEdges) {
			return fmt.Errorf("crawl backend is not walkable (every reachable start is edgeless): %w", err)
		}
		return err
	}
	def.AdoptCrawl(cj)
	reg.Start()
	if c.pprofOn {
		registerPprof(srv.mux)
	}
	go func() {
		if _, err := cj.Wait(); err != nil {
			slog.Error("crawl failed", "err", err)
		}
	}()
	slog.Info("topoestd crawl mode",
		"addr", c.addr, "n", src.NumNodes(), "backend", c.backendName(),
		"scenario", scenarioName(c.star), "walkers", max(jobCfg.Walkers, 1),
		"sampler", jobCfg.Sampler, "max_draws", jobCfg.MaxDraws)
	return listenAndServe(c.addr, srv, srv.shutdown)
}

// crawlBackend resolves the graph the crawl walks: the packed out-of-core
// file of -graph-file, or the generated paper graph — optionally wrapped in
// the rate-limited API-crawl simulation of -qps / -query-cost.
func (c *cli) crawlBackend() (graph.Source, []string, error) {
	var src graph.Source
	if c.graphFile != "" {
		p, err := graph.OpenPackFile(c.graphFile, graph.PackOptions{})
		if err != nil {
			return nil, nil, err
		}
		if p.NumCategories() == 0 {
			return nil, nil, fmt.Errorf("%s carries no categories; crawling needs a categorized graph (pack with -cats or -gen-cats)", c.graphFile)
		}
		src = p
	} else {
		g, err := gen.Paper(randx.New(c.demoSeed), gen.PaperConfig{
			Sizes:   []int64{60, 80, 100, 200, 500, 800, 1000, 2000, 3000, 5000},
			K:       20,
			Alpha:   0.5,
			Connect: true,
		})
		if err != nil {
			return nil, nil, err
		}
		src = g
	}
	var names []string
	if st, ok := graph.StatsOf(src); ok {
		names = st.CategoryNames()
	}
	if c.qps > 0 || c.queryCost > 0 {
		src = graph.NewRateLimited(src, graph.RateLimit{QPS: c.qps, PerQuery: c.queryCost})
	}
	return src, names, nil
}

// backendName describes the crawl backend for the startup log line.
func (c *cli) backendName() string {
	name := "paper graph"
	if c.graphFile != "" {
		name = "packed graph " + c.graphFile
	}
	if c.qps > 0 || c.queryCost > 0 {
		name += " (rate-limited)"
	}
	return name
}

// demoCrawlConfig is the plain -demo job: the fixed-budget special case,
// throttled so the live estimate is watchable while it converges.
func (c *cli) demoCrawlConfig() crawl.Config {
	return crawl.Config{
		Walkers:    1,
		Sampler:    crawl.SamplerRW,
		BurnIn:     1000,
		Seed:       c.demoSeed,
		Star:       c.star,
		MaxDraws:   c.demoDraws,
		CheckEvery: 200,
		RoundDelay: 50 * time.Millisecond,
	}
}

// adaptiveCrawlConfig translates the -crawl flags into a controller config.
func (c *cli) adaptiveCrawlConfig() (crawl.Config, error) {
	cats, err := parseCats(c.crawlCats)
	if err != nil {
		return crawl.Config{}, err
	}
	return crawl.Config{
		Walkers:      c.crawlWalkers,
		Sampler:      c.crawlSampler,
		BurnIn:       c.crawlBurnIn,
		Seed:         c.crawlSeed,
		Star:         c.star,
		Engine:       crawl.Engine(c.crawlEngine),
		Level:        c.crawlLevel,
		SizeTarget:   c.crawlTarget,
		SizeCats:     cats,
		WithinTarget: c.crawlWithin,
		WithinCats:   cats,
		MaxDraws:     c.crawlMax,
		MinDraws:     c.crawlMin,
		CheckEvery:   c.crawlCheck,
	}, nil
}

// parseCats parses the -crawl-cats list ("" = nil = all categories).
func parseCats(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var cats []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -crawl-cats entry %q: %v", f, err)
		}
		cats = append(cats, n)
	}
	return cats, nil
}

func parseSizeMethod(s string) (core.SizeMethod, error) { return job.ParseSizeMethod(s) }

func scenarioName(star bool) string {
	if star {
		return "star"
	}
	return "induced"
}

// server is the HTTP facade over the daemon's job registry. Every
// estimation stream is a *job.Job — accumulator, snapshot cache, crawl slot
// and checkpoint state live there — and every per-stream route exists twice:
// under /jobs/{job}/... for the named job and un-prefixed as an alias for
// the "default" job, so single-tenant clients never see the tenant layer.
type server struct {
	mux   *http.ServeMux
	start time.Time

	// jobs is the tenant registry; def is the "default" job the legacy
	// un-prefixed routes serve; template seeds POST /jobs specs — a new job
	// inherits the daemon's flag-derived configuration except where the
	// request body overrides it.
	jobs     *job.Registry
	def      *job.Job
	template job.Spec

	// crawlSource is the graph backend of crawl/demo mode — generated,
	// packed out-of-core, or rate-limited (nil when the daemon only serves
	// externally pushed records); crawlDefaults seeds the configuration of
	// POST /crawl jobs. Both are daemon-level: every job crawls the same
	// backend, each into its own accumulator.
	crawlSource   graph.Source
	crawlDefaults crawl.Config

	// merger is non-nil on a -merge-from coordinator; /healthz then carries
	// its per-worker status and shutdown stops its poll loop.
	merger *merger
}

// jobHandler is a per-stream handler: the routing layer resolves which job
// the request addresses and the handler works purely against it.
type jobHandler func(w http.ResponseWriter, r *http.Request, j *job.Job)

// newServer builds a server over a lone accumulator: a registry without a
// checkpoint directory whose default job adopts acc. The daemon's
// single-tenant construction path and every pre-existing test go through
// here; durable multi-tenant deployments use newServerWithJobs directly.
func newServer(acc stream.Ingester, names []string) *server {
	reg, err := job.NewRegistry("", 0, nil)
	if err != nil {
		panic(err) // unreachable: no directory to create
	}
	def, err := reg.Adopt(adoptSpec(acc), acc, names)
	if err != nil {
		panic(err) // unreachable: fresh registry, constant valid name
	}
	return newServerWithJobs(reg, def)
}

// adoptSpec reverse-engineers a job spec from a pre-built accumulator.
func adoptSpec(acc stream.Ingester) job.Spec {
	cfg := acc.Config()
	return job.Spec{
		Name: job.DefaultName, K: cfg.K, Star: cfg.Star, N: cfg.N, Size: cfg.Size.String(),
		Bootstrap: cfg.Replicates.B, BootstrapSeed: cfg.Replicates.Seed,
	}
}

// newServerWithJobs builds the HTTP facade over a populated registry whose
// default job is def. Every per-stream route is registered twice: once
// un-prefixed, bound to the default job, and once under /jobs/{job}/.
func newServerWithJobs(reg *job.Registry, def *job.Job) *server {
	s := &server{mux: http.NewServeMux(), start: time.Now(), jobs: reg, def: def, template: def.Spec()}
	routes := []struct {
		method, path string
		h            jobHandler
	}{
		{"POST", "/ingest", s.handleIngest},
		{"GET", "/estimate", s.handleEstimate},
		{"GET", "/categorygraph.tsv", s.handleTSV},
		{"GET", "/sums", s.handleSums},
		{"POST", "/crawl", s.handleCrawlStart},
		{"GET", "/crawl/status", s.handleCrawlStatus},
	}
	for _, rt := range routes {
		s.mux.HandleFunc(rt.method+" "+rt.path, instrument(rt.path, s.forDefault(rt.h)))
		s.mux.HandleFunc(rt.method+" /jobs/{job}"+rt.path, instrument("/jobs/{job}"+rt.path, s.forJob(rt.h)))
	}
	s.mux.HandleFunc("POST /jobs", instrument("/jobs", s.handleJobCreate))
	s.mux.HandleFunc("GET /jobs", instrument("/jobs", s.handleJobList))
	s.mux.HandleFunc("DELETE /jobs/{job}", instrument("/jobs/{job}", s.handleJobDelete))
	s.mux.HandleFunc("GET /healthz", instrument("/healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", obs.Handler(obs.Default))
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// forDefault binds a per-stream handler to the default job — the legacy
// un-prefixed routes.
func (s *server) forDefault(h jobHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { h(w, r, s.def) }
}

// forJob resolves the {job} path segment against the registry.
func (s *server) forJob(h jobHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, err := s.jobs.Get(r.PathValue("job"))
		if err != nil {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		h(w, r, j)
	}
}

// ingestMode names the accumulator's concurrency design for logs and
// /healthz.
func ingestMode(acc stream.Ingester) string {
	switch acc.(type) {
	case *stream.EpochAccumulator:
		return "epoch-merged"
	case *stream.Pool:
		return "merge-pool"
	}
	return "single-lock"
}

// shutdown runs after the HTTP server has stopped accepting requests and
// drained the in-flight ones: stop the merge poll loop if this daemon is a
// coordinator, and write one final checkpoint per job (registry shutdown)
// so everything acknowledged is durable before the process exits.
func (s *server) shutdown() {
	if s.merger != nil {
		s.merger.stopWait()
	}
	if err := s.jobs.Shutdown(); err != nil {
		slog.Error("final checkpoint failed", "err", err)
	}
}

// handleSums streams the accumulator's encoded sufficient statistics — the
// worker half of the distributed tier. The response is the internal/wire
// binary format (gzip-compressed when the client accepts it); the codec
// version header lets a coordinator reject a newer format before parsing.
// It works over any Ingester, so a coordinator also serves /sums and tiers
// stack.
func (s *server) handleSums(w http.ResponseWriter, r *http.Request, j *job.Job) {
	st, err := j.Acc().Export()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	enc, err := wire.Encode(st)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode state: %v", err)
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set(wire.VersionHeader, strconv.Itoa(wire.Version))
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzip.NewWriter(w)
		gz.Write(enc)
		gz.Close()
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(enc)))
	w.Write(enc)
}

// Request body limits: an /ingest batch, and the JSON configuration bodies
// of POST /crawl and POST /jobs.
const (
	maxIngestBody = 64 << 20
	maxConfigBody = 1 << 20
)

// readBody reads a request body of at most limit bytes. On failure it has
// already answered — 413 for a body over the limit, 400 for any other read
// error — and returns ok=false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		return body, true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	} else {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
	}
	return nil, false
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// wireRecord is the ingest wire form of sample.NodeObservation. Cat is a
// pointer so an omitted "cat" key is caught at the API boundary instead of
// silently decoding to category 0 and permanently skewing the estimate.
type wireRecord struct {
	Node   int32     `json:"node"`
	Weight float64   `json:"weight"`
	Cat    *int32    `json:"cat"`
	Deg    float64   `json:"deg"`
	NbrCat []int32   `json:"nbr_cat"`
	NbrCnt []float64 `json:"nbr_cnt"`
	Peers  []int32   `json:"peers"`
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request, j *job.Job) {
	t0 := time.Now()
	body, ok := readBody(w, r, maxIngestBody)
	if !ok {
		return
	}
	if isRecordsContentType(r.Header.Get("Content-Type")) {
		handleIngestBinary(w, j, body, t0)
		return
	}
	// Peek at the first non-space byte to accept either one record object
	// or an array of them, with a single parse either way.
	i := 0
	for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
		i++
	}
	var wires []wireRecord
	if i < len(body) && body[i] == '[' {
		if err := json.Unmarshal(body, &wires); err != nil {
			httpError(w, http.StatusBadRequest, "bad record array: %v", err)
			return
		}
	} else {
		var rec wireRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			httpError(w, http.StatusBadRequest, "bad record: %v", err)
			return
		}
		wires = []wireRecord{rec}
	}
	recs := make([]sample.NodeObservation, len(wires))
	for i, wr := range wires {
		if wr.Cat == nil {
			// Pre-validation failure: nothing was applied, all-or-nothing,
			// but the offender index must still be reported — it is not the
			// applied count here.
			ingestError(w, 0, len(wires), i,
				`record %d (node %d) is missing "cat" (use -1 for uncategorized)`, i, wr.Node)
			return
		}
		recs[i] = sample.NodeObservation{
			Node: wr.Node, Weight: wr.Weight, Cat: *wr.Cat,
			Deg: wr.Deg, NbrCat: wr.NbrCat, NbrCnt: wr.NbrCnt, Peers: wr.Peers,
		}
	}
	n, err := j.Acc().IngestBatch(recs)
	j.NoteIngest(n, len(body), t0)
	if err != nil {
		writeIngestError(w, n, len(recs), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"ingested": n, "draws": j.Acc().Draws()})
}

// isRecordsContentType reports whether the request negotiated the TOPOREC1
// binary batch encoding (wire.RecordsContentType, parameters ignored).
// Everything else — including an absent header — is treated as JSON, the
// lenient default the daemon always accepted.
func isRecordsContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), wire.RecordsContentType)
}

// recordIterPool recycles binary-batch iterators (and their record-decode
// scratch) across requests, keeping the binary ingest path free of
// per-record allocations.
var recordIterPool = sync.Pool{New: func() any { return new(wire.RecordIter) }}

// handleIngestBinary is the TOPOREC1 branch of POST /ingest. The error
// contract matches JSON exactly: a body that fails frame validation is a
// 400 with nothing applied (the frame is structurally checked before any
// record is ingested), and a record the stream rejects is a 422 whose
// "ingested"/"index" count leading records applied — the index
// means the same thing in both encodings, so a retrying client needs no
// per-encoding logic.
func handleIngestBinary(w http.ResponseWriter, j *job.Job, body []byte, t0 time.Time) {
	it := recordIterPool.Get().(*wire.RecordIter)
	defer recordIterPool.Put(it)
	if err := it.Reset(body); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n, err := ingestStream(j, it)
	j.NoteIngest(n, len(body), t0)
	if err != nil {
		writeIngestError(w, n, it.Len(), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"ingested": n, "draws": j.Acc().Draws()})
}

// ingestStream drains a binary batch straight into the job's stream without
// materializing a record slice: each decoded record aliases the iterator's
// scratch, which every ingest path copies before retaining. Epoch-merged
// jobs ingest through a writer-private local borrowed from the
// accumulator's pool and flushed before the response — exactly mirroring
// EpochAccumulator.IngestBatch, including the *stream.FlushConflictError
// for records the flush drops — and the single-lock accumulator takes
// records directly.
func ingestStream(j *job.Job, it *wire.RecordIter) (int, error) {
	var rec sample.NodeObservation
	l := j.TakeLocal()
	if l == nil {
		acc := j.Acc()
		for i := 0; it.Next(&rec); i++ {
			if err := acc.Ingest(rec); err != nil {
				return i, err
			}
		}
		return it.Len(), nil
	}
	defer j.PutLocal(l)
	n := 0
	var err error
	for ; it.Next(&rec); n++ {
		if err = l.Ingest(rec); err != nil {
			break
		}
	}
	applied, dropped := l.Flush()
	if dropped > 0 {
		return applied, &stream.FlushConflictError{Applied: applied, Dropped: dropped, Err: err}
	}
	return applied, err
}

// writeIngestError answers a failed /ingest of total records of which n
// were applied: 403 on a read-only coordinator, 409 for records a flush
// dropped, and the 422 valid-prefix body otherwise.
func writeIngestError(w http.ResponseWriter, n, total int, err error) {
	var fc *stream.FlushConflictError
	switch {
	case errors.Is(err, stream.ErrReadOnly):
		httpError(w, http.StatusForbidden, "this daemon is a merge coordinator; ingest on the workers it polls")
	case errors.As(err, &fc):
		body := map[string]any{
			"error":   fmt.Sprintf("applied %d of %d records: %v", fc.Applied, total, fc),
			"applied": fc.Applied,
			"dropped": fc.Dropped,
			"total":   total,
		}
		if fc.Err != nil {
			body["index"] = fc.Applied + fc.Dropped
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(body)
	default:
		// The first n records stay applied and record n is the offender;
		// the body carries both so a retrying client can resend only the
		// remainder (see package doc).
		ingestError(w, n, total, n, "%v", err)
	}
}

// ingestError writes the structured /ingest error body: the human-readable
// message plus the machine-readable fields that make retries safe —
// "ingested" leading records are applied, the record at "index" is the
// offender, and only the records from "ingested" onward (minus the fixed or
// dropped offender) may be resent.
func ingestError(w http.ResponseWriter, ingested, total, index int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusUnprocessableEntity)
	json.NewEncoder(w).Encode(map[string]any{
		"error":    fmt.Sprintf("ingested %d of %d records: %s", ingested, total, fmt.Sprintf(format, args...)),
		"ingested": ingested,
		"total":    total,
		"index":    index,
	})
}

// estimateDoc is the JSON shape of GET /estimate. NaN/Inf cannot travel in
// JSON, so non-finite quantities are omitted (pointer fields stay null).
// The ci fields appear only when the daemon runs with -bootstrap: every
// interval is the [lo, hi] percentile CI of the streaming bootstrap at
// ci_level (the ?ci= query parameter, default 0.95), computed over
// bootstrap_b replicates.
type estimateDoc struct {
	Seq         int64          `json:"seq"`
	Draws       int            `json:"draws"`
	Distinct    int            `json:"distinct"`
	N           float64        `json:"n"`
	PopEstimate *float64       `json:"pop_estimate,omitempty"`
	PopCI       *[2]float64    `json:"pop_ci,omitempty"`
	SizeMethod  string         `json:"size_method"`
	WeightKind  string         `json:"weight_kind"`
	BootstrapB  int            `json:"bootstrap_b,omitempty"`
	CILevel     *float64       `json:"ci_level,omitempty"`
	Sizes       []sizeEntry    `json:"sizes"`
	Weights     []weightEntry  `json:"weights"`
	Convergence convergenceDoc `json:"convergence"`
}

type sizeEntry struct {
	Cat      int32       `json:"cat"`
	Name     string      `json:"name"`
	Size     float64     `json:"size"`
	CI       *[2]float64 `json:"ci,omitempty"`
	Within   *float64    `json:"within,omitempty"`
	WithinCI *[2]float64 `json:"within_ci,omitempty"`
}

type weightEntry struct {
	A      int32       `json:"a"`
	B      int32       `json:"b"`
	Weight float64     `json:"w"`
	CI     *[2]float64 `json:"ci,omitempty"`
	Cut    float64     `json:"cut"`
}

type convergenceDoc struct {
	DrawsSince  int      `json:"draws_since"`
	SizeDelta   *float64 `json:"size_delta,omitempty"`
	WeightDelta *float64 `json:"weight_delta,omitempty"`
}

func finitePtr(x float64) *float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return &x
}

// finiteIv converts an uncert interval to its wire form, omitting intervals
// with non-finite endpoints (NaN/Inf cannot travel in JSON).
func finiteIv(iv uncert.Interval) *[2]float64 {
	if !iv.Finite() {
		return nil
	}
	return &[2]float64{iv.Lo, iv.Hi}
}

// ciLevel parses the ?ci= query parameter against the daemon's bootstrap
// configuration: (0, false, nil) when intervals are off (no -bootstrap and
// no ?ci=), the level and true when they are on, an error for ?ci= without
// -bootstrap or a level outside (0, 1).
func ciLevel(r *http.Request, j *job.Job) (float64, bool, error) {
	raw := r.URL.Query().Get("ci")
	bootOn := j.Acc().Config().Replicates.Enabled()
	if raw == "" {
		return 0.95, bootOn, nil
	}
	if !bootOn {
		return 0, false, fmt.Errorf("confidence intervals need the daemon started with -bootstrap B")
	}
	level, err := strconv.ParseFloat(raw, 64)
	if err != nil || !(level > 0 && level < 1) {
		return 0, false, fmt.Errorf("ci must be a confidence level in (0,1), got %q", raw)
	}
	return level, true, nil
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request, j *job.Job) {
	level, withCI, err := ciLevel(r, j)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap, cg, err := j.Snapshot()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	doc := estimateDoc{
		Seq:         snap.Seq,
		Draws:       snap.Draws,
		Distinct:    snap.Distinct,
		N:           snap.Result.N,
		PopEstimate: finitePtr(snap.PopEstimate),
		SizeMethod:  snap.Result.SizeMethod.String(),
		WeightKind:  snap.Result.WeightKind,
		Convergence: convergenceDoc{
			DrawsSince:  snap.Converge.DrawsSince,
			SizeDelta:   finitePtr(snap.Converge.SizeDelta),
			WeightDelta: finitePtr(snap.Converge.WeightDelta),
		},
	}
	if withCI && snap.Boot != nil {
		doc.BootstrapB = snap.Boot.B
		doc.CILevel = &level
		doc.PopCI = finiteIv(snap.Boot.PopCI(level))
	}
	for c, size := range snap.Result.Sizes {
		entry := sizeEntry{
			Cat: int32(c), Name: j.Names()[c], Size: size,
			Within: finitePtr(snap.Within[c]),
		}
		if withCI && snap.Boot != nil {
			entry.CI = finiteIv(snap.Boot.SizeCI(c, level))
			entry.WithinCI = finiteIv(snap.Boot.WithinCI(c, level))
		}
		doc.Sizes = append(doc.Sizes, entry)
	}
	for _, e := range cg.Edges() {
		if math.IsNaN(e.Weight) { // unresolvable star denominator
			continue
		}
		entry := weightEntry{A: e.A, B: e.B, Weight: e.Weight, Cut: cg.Cut(e.A, e.B)}
		if withCI && snap.Boot != nil {
			entry.CI = finiteIv(snap.Boot.WeightCI(e.A, e.B, level))
		}
		doc.Weights = append(doc.Weights, entry)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

func (s *server) handleTSV(w http.ResponseWriter, r *http.Request, j *job.Job) {
	_, cg, err := j.Snapshot()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	if err := cg.WriteTSV(w); err != nil {
		slog.Warn("write categorygraph.tsv", "err", err)
	}
}

// crawlReq is the wire form of POST /crawl: every field is optional and
// overrides the daemon's flag-derived defaults. The scenario, shard count
// and estimator configuration are fixed at daemon startup — a crawl job
// streams into the daemon's own accumulator.
type crawlReq struct {
	Walkers      *int     `json:"walkers"`
	Sampler      *string  `json:"sampler"`
	BurnIn       *int     `json:"burn_in"`
	Thin         *int     `json:"thin"`
	Seed         *uint64  `json:"seed"`
	Engine       *string  `json:"engine"`
	Level        *float64 `json:"level"`
	SizeTarget   *float64 `json:"size_target"`
	SizeCats     []int    `json:"size_cats"`
	WithinTarget *float64 `json:"within_target"`
	WithinCats   []int    `json:"within_cats"`
	MaxDraws     *int     `json:"max_draws"`
	MinDraws     *int     `json:"min_draws"`
	CheckEvery   *int     `json:"check_every"`
}

// apply folds the request's overrides into a copy of the daemon defaults.
func (req *crawlReq) apply(cfg crawl.Config) crawl.Config {
	setInt := func(dst *int, src *int) {
		if src != nil {
			*dst = *src
		}
	}
	setFloat := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	setInt(&cfg.Walkers, req.Walkers)
	setInt(&cfg.BurnIn, req.BurnIn)
	setInt(&cfg.Thin, req.Thin)
	setInt(&cfg.MaxDraws, req.MaxDraws)
	setInt(&cfg.MinDraws, req.MinDraws)
	setInt(&cfg.CheckEvery, req.CheckEvery)
	setFloat(&cfg.Level, req.Level)
	setFloat(&cfg.SizeTarget, req.SizeTarget)
	setFloat(&cfg.WithinTarget, req.WithinTarget)
	if req.Sampler != nil {
		cfg.Sampler = *req.Sampler
	}
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	if req.Engine != nil {
		cfg.Engine = crawl.Engine(*req.Engine)
	}
	if req.SizeCats != nil {
		cfg.SizeCats = req.SizeCats
	}
	if req.WithinCats != nil {
		cfg.WithinCats = req.WithinCats
	}
	return cfg
}

// handleCrawlStart launches an adaptive crawl against the daemon's
// generated graph, streaming into the addressed job's accumulator. One
// crawl runs at a time per job — starting while the job's crawl is active
// is a 409, while crawls in other jobs proceed concurrently; finished
// crawls may be superseded (the accumulator keeps pooling draws across
// them).
func (s *server) handleCrawlStart(w http.ResponseWriter, r *http.Request, j *job.Job) {
	if s.crawlSource == nil {
		httpError(w, http.StatusNotFound, "no crawl backend: start the daemon with -crawl or -demo")
		return
	}
	var req crawlReq
	body, ok := readBody(w, r, maxConfigBody)
	if !ok {
		return
	}
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "bad crawl config: %v", err)
			return
		}
	}
	cfg := req.apply(s.crawlDefaults)
	_, err := j.StartCrawl(s.crawlSource, cfg)
	if errors.Is(err, job.ErrCrawlRunning) {
		httpError(w, http.StatusConflict, "a crawl is already running in job %q; poll its crawl/status", j.Name())
		return
	}
	if err != nil {
		if errors.Is(err, sample.ErrNoEdges) {
			httpError(w, http.StatusUnprocessableEntity, "crawl backend is not walkable: %v", err)
		} else {
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
		}
		return
	}
	slog.Info("crawl started", "job", j.Name(),
		"walkers", max(cfg.Walkers, 1), "sampler", orDefault(cfg.Sampler, crawl.SamplerRW),
		"engine", orDefault(string(cfg.Engine), string(crawl.EngineBootstrap)),
		"size_target", cfg.SizeTarget, "max_draws", cfg.MaxDraws)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{
		"status":    "started",
		"walkers":   max(cfg.Walkers, 1),
		"max_draws": cfg.MaxDraws,
	})
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// crawlStatusDoc is the JSON shape of GET /crawl/status. Half-width arrays
// use pointers so unresolved estimands (NaN) travel as null.
type crawlStatusDoc struct {
	State    string      `json:"state"` // none | running | done | failed
	Draws    int         `json:"draws,omitempty"`
	MaxDraws int         `json:"max_draws,omitempty"`
	Walkers  []walkerDoc `json:"walkers,omitempty"`
	// Queries is the number of chargeable neighbor-queries spent so far;
	// present only when the backend meters access (-qps / -query-cost).
	Queries    *int64          `json:"queries,omitempty"`
	Checkpoint *checkpointDoc  `json:"checkpoint,omitempty"`
	Result     *crawlResultDoc `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
}

type walkerDoc struct {
	Walker int   `json:"walker"`
	Draws  int   `json:"draws"`
	Node   int32 `json:"node"`
}

type checkpointDoc struct {
	Seq        int        `json:"seq"`
	Draws      int        `json:"draws"`
	SizeHW     []*float64 `json:"size_hw"`
	WithinHW   []*float64 `json:"within_hw"`
	TargetsMet bool       `json:"targets_met"`
}

type crawlResultDoc struct {
	Stopped     string `json:"stopped"`
	Draws       int    `json:"draws"`
	Checkpoints int    `json:"checkpoints"`
	Queries     *int64 `json:"queries,omitempty"`
}

func finiteSlice(xs []float64) []*float64 {
	out := make([]*float64, len(xs))
	for i, x := range xs {
		out[i] = finitePtr(x)
	}
	return out
}

func checkpointToDoc(cp *crawl.Checkpoint) *checkpointDoc {
	if cp == nil {
		return nil
	}
	return &checkpointDoc{
		Seq:        cp.Seq,
		Draws:      cp.Draws,
		SizeHW:     finiteSlice(cp.SizeHW),
		WithinHW:   finiteSlice(cp.WithinHW),
		TargetsMet: cp.TargetsMet,
	}
}

// handleCrawlStatus reports the live state of the job's crawl: per-walker
// progress, the most recent stopping-rule checkpoint with its CI
// half-widths, and — once finished — the stop reason.
func (s *server) handleCrawlStatus(w http.ResponseWriter, r *http.Request, j *job.Job) {
	c := j.Crawl()
	doc := crawlStatusDoc{State: "none"}
	if c != nil {
		st := c.Status()
		doc.Draws = st.Draws
		doc.MaxDraws = st.MaxDraws
		for _, ws := range st.Walkers {
			doc.Walkers = append(doc.Walkers, walkerDoc{Walker: ws.Walker, Draws: ws.Draws, Node: ws.Node})
		}
		if st.Metered {
			doc.Queries = &st.Queries
		}
		doc.Checkpoint = checkpointToDoc(st.Last)
		if st.Running {
			doc.State = "running"
		} else if res, err := c.Wait(); err != nil {
			doc.State = "failed"
			doc.Error = err.Error()
		} else {
			doc.State = "done"
			doc.Result = &crawlResultDoc{
				Stopped:     string(res.Stopped),
				Draws:       res.Draws,
				Checkpoints: res.Checkpoints,
			}
			if res.Metered {
				doc.Result.Queries = &res.Queries
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// handleHealthz reports liveness plus enough build and workload context to
// identify what is running: accumulator configuration and stream position
// of the default job (the top-level fields every pre-existing probe reads),
// process pulse (uptime, goroutines), the build the binary was compiled
// from, the process-wide cumulative ingest and crawl counters (the same
// totals /metrics exports, in JSON for humans and probes), and a per-job
// section with each job's stream position, crawl state and last checkpoint.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	acc := s.def.Acc()
	doc := map[string]any{
		"status":      "ok",
		"scenario":    scenarioName(acc.Config().Star),
		"k":           acc.Config().K,
		"accumulator": ingestMode(acc),
		"bootstrap_b": acc.Config().Replicates.B,
		"draws":       acc.Draws(),
		"distinct":    acc.Distinct(),
		"uptime_s":    time.Since(s.start).Seconds(),
		"go_version":  runtime.Version(),
		"goroutines":  runtime.NumGoroutine(),
		"build":       buildDoc(),
		"ingest": map[string]int64{
			"records":  stream.IngestedTotal(),
			"rejected": stream.RejectedTotal(),
		},
		"crawl": map[string]int64{
			"draws":       crawl.DrawsTotal(),
			"checkpoints": crawl.CheckpointsTotal(),
		},
	}
	jobs := map[string]any{}
	for _, jb := range s.jobs.List() {
		jobs[jb.Name()] = jobDoc(jb)
	}
	doc["jobs"] = jobs
	if s.merger != nil {
		doc["merge"] = s.merger.status()
	}
	json.NewEncoder(w).Encode(doc)
}

// jobDoc is the JSON shape one job takes in GET /jobs and the /healthz jobs
// section.
func jobDoc(j *job.Job) map[string]any {
	acc := j.Acc()
	doc := map[string]any{
		"name":        j.Name(),
		"k":           acc.Config().K,
		"scenario":    scenarioName(acc.Config().Star),
		"accumulator": ingestMode(acc),
		"bootstrap_b": acc.Config().Replicates.B,
		"draws":       acc.Draws(),
		"distinct":    acc.Distinct(),
		"gen":         acc.Gen(),
		"crawl":       crawlStateName(j),
	}
	if gen, at := j.CheckpointStatus(); !at.IsZero() || gen > 0 {
		doc["checkpoint_gen"] = gen
		if !at.IsZero() {
			doc["checkpoint_age_s"] = time.Since(at).Seconds()
		}
	}
	if n, ok := j.RecordsSinceCheckpoint(); ok {
		doc["records_since_checkpoint"] = n
	}
	return doc
}

// crawlStateName summarizes the job's crawl slot for listings.
func crawlStateName(j *job.Job) string {
	c := j.Crawl()
	if c == nil {
		return "none"
	}
	if j.CrawlRunning() {
		return "running"
	}
	if _, err := c.Wait(); err != nil {
		return "failed"
	}
	return "done"
}

// handleJobCreate registers a new job. The request body is the job's spec:
// "name" is required; every other field defaults to the daemon's
// flag-derived configuration, so {"name":"x"} clones the default job's
// shape. With -checkpoint-dir, a job whose checkpoint file holds a valid
// frame resumes from it (identity mismatch is a 409 — the durable state
// contradicts the request).
func (s *server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxConfigBody)
	if !ok {
		return
	}
	var req jobReq
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if req.Name == "" {
		httpError(w, http.StatusBadRequest, `job spec needs a "name"`)
		return
	}
	spec := req.apply(s.template)
	j, err := s.jobs.Create(spec)
	switch {
	case errors.Is(err, job.ErrExists):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		// Identity conflicts with a persisted checkpoint are 409 (the
		// durable state wins); everything else is a bad spec.
		if strings.Contains(err.Error(), "checkpoint") {
			httpError(w, http.StatusConflict, "%v", err)
		} else {
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	slog.Info("job created", "job", j.Name(), "k", j.Spec().K,
		"scenario", scenarioName(j.Spec().Star), "gen", j.Acc().Gen())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(jobDoc(j))
}

// jobReq is the wire form of POST /jobs: name plus optional overrides of
// the daemon's flag-derived defaults (pointer fields distinguish "absent"
// from zero values).
type jobReq struct {
	Name          string   `json:"name"`
	K             *int     `json:"k"`
	Names         []string `json:"names"`
	Star          *bool    `json:"star"`
	N             *float64 `json:"n"`
	Size          *string  `json:"size"`
	Bootstrap     *int     `json:"bootstrap"`
	BootstrapSeed *uint64  `json:"bootstrap_seed"`
}

// apply folds the request's overrides into a copy of the daemon's template
// spec.
func (req *jobReq) apply(tmpl job.Spec) job.Spec {
	spec := tmpl
	spec.Name = req.Name
	if req.K != nil {
		spec.K = *req.K
		spec.Names = nil
	}
	if req.Names != nil {
		spec.Names = req.Names
	}
	if req.Star != nil {
		spec.Star = *req.Star
	}
	if req.N != nil {
		spec.N = *req.N
	}
	if req.Size != nil {
		spec.Size = *req.Size
	}
	if req.Bootstrap != nil {
		spec.Bootstrap = *req.Bootstrap
	}
	if req.BootstrapSeed != nil {
		spec.BootstrapSeed = *req.BootstrapSeed
	}
	return spec
}

// handleJobList lists every job with its stream position and crawl state.
func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	docs := []map[string]any{}
	for _, j := range s.jobs.List() {
		docs = append(docs, jobDoc(j))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"jobs": docs})
}

// handleJobDelete removes a job and its checkpoint file — the stream is
// discarded durably. The default job is the daemon's own configuration and
// cannot be deleted; a job with a running crawl cannot be deleted either.
func (s *server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("job")
	if name == job.DefaultName {
		httpError(w, http.StatusBadRequest, "the default job cannot be deleted; it is the daemon's own stream")
		return
	}
	err := s.jobs.Delete(name)
	switch {
	case errors.Is(err, job.ErrNotFound):
		httpError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, job.ErrCrawlRunning):
		httpError(w, http.StatusConflict, "%v", err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
	default:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"deleted": name})
	}
}

// buildDoc summarizes runtime/debug.ReadBuildInfo: the main module path and
// version, plus the VCS revision and dirty flag when the build carries them
// (test binaries and plain `go run` may not).
func buildDoc() map[string]string {
	doc := map[string]string{"path": "", "version": ""}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return doc
	}
	doc["path"] = bi.Main.Path
	doc["version"] = bi.Main.Version
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			doc["revision"] = kv.Value
		case "vcs.modified":
			doc["modified"] = kv.Value
		}
	}
	return doc
}
