package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/sample"
	"repro/internal/wire"
)

// setupRuns is how many times each run starts its daemon to measure set-up:
// the reported setup_s is their median, and the last start is the daemon
// the run measures.
const setupRuns = 9

// setup starts the daemon setupRuns times with the arguments args(i) and
// reports the median time from exec to the first 200 on /healthz. Every
// start but the last is stopped again; the last is returned running.
func (e *env) setup(args func(i int) []string, extraEnv []string) (*daemon, error) {
	var times []float64
	for i := 0; i < setupRuns; i++ {
		d, took, err := startDaemon(e.daemon, args(i), extraEnv, filepath.Join(e.work, fmt.Sprintf("daemon-%d.log", i)))
		if err != nil {
			return nil, err
		}
		times = append(times, took.Seconds())
		if i == setupRuns-1 {
			e.set("setup_s", "s", median(times))
			return d, nil
		}
		if _, err := d.stop(); err != nil {
			return nil, err
		}
	}
	panic("unreachable")
}

// restart stops d with SIGTERM and starts it again with args n times, and
// prints each cycle's time: the graceful shutdown (final checkpoint
// included) plus exec to the first 200 on /healthz. It is not a reported
// metric: on a shared two-vCPU VM with a shared disk it spread by 0.27–0.36
// of its median over ten seeds, wider than any bound may be. Before each
// stop, prepare (when non-nil) runs against the running daemon; after each
// start, verify (when non-nil) runs against the new one, untimed. It
// returns the last daemon started.
func (e *env) restart(d *daemon, args []string, n int, prepare, verify func(*daemon) error) (*daemon, error) {
	for i := 0; i < n; i++ {
		if prepare != nil {
			if err := prepare(d); err != nil {
				return d, err
			}
		}
		down, err := d.stop()
		if err != nil {
			return nil, err
		}
		var up time.Duration
		d, up, err = startDaemon(e.daemon, args, nil, filepath.Join(e.work, fmt.Sprintf("daemon-restart-%d.log", i)))
		if err != nil {
			return nil, err
		}
		logf("restart: %.1f ms = SIGTERM to exit %.1f ms + exec to /healthz %.1f ms",
			1e3*(down+up).Seconds(), 1e3*down.Seconds(), 1e3*up.Seconds())
		if verify != nil {
			if err := verify(d); err != nil {
				return d, err
			}
		}
	}
	return d, nil
}

// peakRSS records rss_peak_mb, the daemon's VmHWM so far.
func (e *env) peakRSS(d *daemon) error {
	mb, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	e.set("rss_peak_mb", "MB", mb)
	return nil
}

// sender returns a sendFunc that POSTs batches to url with content type
// ctype, counting every request.
func (e *env) sender(c *http.Client, url, ctype string) sendFunc {
	return func(ctx context.Context, b batch) error {
		_, err := do(ctx, c, http.MethodPost, url, ctype, b.body)
		return e.tally(err)
	}
}

// poll GETs url at rate requests per second for d on its own connection,
// open loop, concurrently with whatever else runs; the returned channel
// delivers the phase when it ends.
func (e *env) poll(ctx context.Context, url string, rate float64, d time.Duration) <-chan *phase {
	ch := make(chan *phase, 1)
	c := newClient(1)
	reqs := make([]batch, max(1, int(rate*d.Seconds())))
	go func() {
		ch <- runOpenLoop(ctx, 1, rate, reqs, func(ctx context.Context, _ batch) error {
			_, err := do(ctx, c, http.MethodGet, url, "", nil)
			return e.tally(err)
		})
	}()
	return ch
}

// estimateLatency records estimate_p50_ms from a poll phase and prints the
// 90th percentile, the highest one the phase's sample count supports with at
// least ten samples beyond it. The tail is not a gated metric: on a shared
// two-vCPU machine it moves between runs by more than any bound the
// benchmark may set.
func (e *env) estimateLatency(p *phase) error {
	lat := p.latenciesMs()
	if len(lat) < 2*minBeyond {
		return fmt.Errorf("only %d /estimate samples", len(lat))
	}
	e.set("estimate_p50_ms", "ms", median(lat))
	logf("estimate: %d requests at %.0f/s, p50 %.3f ms, p90 %s", len(lat), p.rate, median(lat), tail(lat, 0.90))
	return nil
}

// ingestLatency records ingest_p50_ms from the fixed-rate phase and prints
// the 99th percentile (ungated, as estimateLatency explains).
func (e *env) ingestLatency(p *phase, recsPerReq int) error {
	lat := p.latenciesMs()
	if len(lat) < 2*minBeyond {
		return fmt.Errorf("only %d ingest samples", len(lat))
	}
	e.set("ingest_p50_ms", "ms", median(lat))
	logf("ingest at %.0f rec/s: %d requests, p50 %.3f ms, p99 %s, failed %d, max lateness %.2f ms",
		p.rate*float64(recsPerReq), len(lat), median(lat), tail(lat, 0.99), p.failed(), p.maxLatenessMs())
	return nil
}

// tail formats the q-quantile of xs in ms, or says why it is not reported.
func tail(xs []float64, q float64) string {
	v, ok := reportable(xs, q)
	if !ok {
		return fmt.Sprintf("n/a (fewer than %d samples beyond it)", minBeyond)
	}
	return fmt.Sprintf("%.3f ms", v)
}

// capacity runs the rate search and records ingest_capacity_rps. The
// search starts from [0.5, 0.85]·guess, where guess is the lower of the
// closed-loop warm-up rate and the rate the fixed-rate phase's server-side
// ingest time per record allows on conns connections, and stops once its
// bracket is under 5% wide. makePhase runs one open-loop phase at a
// records/s rate.
func (e *env) capacity(warm float64, tp *tracedPhase, conns, recsPerReq int, slo float64, makePhase func(rate float64) (*phase, error)) error {
	dm := tp.after.delta(tp.before)
	route := `endpoint="` + tp.route + `"`
	guess := warm
	if sec := dm.sum("http_request_seconds_sum", route); sec > 0 {
		guess = min(guess, float64(conns)*float64(tp.ingest.ackedRecords())/sec)
	}
	var perr error
	capRate, steps, err := searchCapacity(0.5*guess, 0.85*guess, 0.05, 12, func(rate float64) step {
		p, err := makePhase(rate)
		if err != nil {
			perr = err
			return step{rate: rate}
		}
		s := judge(p, recsPerReq, slo)
		logf("capacity step %s", s)
		return s
	})
	if perr != nil {
		return perr
	}
	if err != nil {
		return err
	}
	logf("capacity: %.0f rec/s after %d steps (SLO p99 ≤ %.0f ms)", capRate, len(steps), slo)
	e.set("ingest_capacity_rps", "records/s", capRate)
	return nil
}

// wireRecord mirrors the daemon's JSON ingest record shape.
type wireRecord struct {
	Node   int32     `json:"node"`
	Weight float64   `json:"weight"`
	Cat    *int32    `json:"cat"`
	Deg    float64   `json:"deg,omitempty"`
	NbrCat []int32   `json:"nbr_cat,omitempty"`
	NbrCnt []float64 `json:"nbr_cnt,omitempty"`
	Peers  []int32   `json:"peers,omitempty"`
}

// encoding turns one request's records into a body.
type encoding struct {
	name  string
	ctype string
	enc   func([]sample.NodeObservation) ([]byte, error)
}

var (
	binaryEncoding = encoding{"binary", wire.RecordsContentType, wire.EncodeRecords}
	jsonEncoding   = encoding{"json", "application/json", encodeJSON}
)

func encodeJSON(recs []sample.NodeObservation) ([]byte, error) {
	ws := make([]wireRecord, len(recs))
	for i, r := range recs {
		cat := r.Cat
		ws[i] = wireRecord{Node: r.Node, Weight: r.Weight, Cat: &cat, Deg: r.Deg, NbrCat: r.NbrCat, NbrCnt: r.NbrCnt, Peers: r.Peers}
	}
	return json.Marshal(ws)
}

// batches cuts recs into requests of size records and encodes each.
func (enc encoding) batches(recs []sample.NodeObservation, size int) ([]batch, error) {
	var out []batch
	for i := 0; i < len(recs); i += size {
		part := recs[i:min(i+size, len(recs))]
		body, err := enc.enc(part)
		if err != nil {
			return nil, err
		}
		out = append(out, batch{body: body, records: len(part)})
	}
	return out, nil
}

// fetchEstimate GETs a job's /estimate (path is "" for the default job or
// "/jobs/<name>") with an optional query.
func (e *env) fetchEstimate(ctx context.Context, base, path, query string) (*estimateDoc, error) {
	var doc estimateDoc
	err := e.tally(getJSON(ctx, newClient(1), base+path+"/estimate"+query, &doc))
	return &doc, err
}

// checkNoRejects is the gate on the daemon's own reject counters: no record
// of a correct workload may be rejected, for any reason.
func (e *env) checkNoRejects(before, after metrics) {
	if n := after.delta(before).sum("stream_ingest_rejected_total"); n != 0 {
		e.gate(fmt.Errorf("stream_ingest_rejected_total moved by %.0f", n))
	}
}

// serverDeltas prints the server-side per-layer counts of one timed phase,
// from two /metrics scrapes around it.
func serverDeltas(label string, before, after metrics) {
	d := after.delta(before)
	var b strings.Builder
	fmt.Fprintf(&b, "server %s: records %.0f", label, d.sum("stream_ingest_records_total"))
	for k, v := range d {
		if strings.HasPrefix(k, "stream_ingest_rejected_total{") && v != 0 {
			fmt.Fprintf(&b, ", rejected%s %.0f", strings.TrimPrefix(k, "stream_ingest_rejected_total"), v)
		}
	}
	fmt.Fprintf(&b, ", snapshots %.0f (%.3f s)", d.sum("stream_snapshot_seconds_count"), d.sum("stream_snapshot_seconds_sum"))
	fmt.Fprintf(&b, ", checkpoints %.0f (%.3f s, %.0f bytes)", d.sum("topoestd_job_checkpoint_seconds_count"),
		d.sum("topoestd_job_checkpoint_seconds_sum"), d.sum("topoestd_job_checkpoint_bytes_total"))
	fmt.Fprintf(&b, ", crawl checkpoints %.0f (%.3f s)", d.sum("crawl_checkpoint_seconds_count"), d.sum("crawl_checkpoint_seconds_sum"))
	fmt.Fprintf(&b, ", epoch flushes %.0f", d.sum("stream_epoch_flushes_total"))
	var routes []string
	for k, v := range d {
		if strings.HasPrefix(k, "http_request_seconds_count{") && v > 0 {
			routes = append(routes, k)
		}
	}
	sort.Strings(routes)
	for _, k := range routes {
		lbl := strings.TrimPrefix(k, "http_request_seconds_count")
		n := d[k]
		s := d["http_request_seconds_sum"+lbl]
		fmt.Fprintf(&b, ", http%s %.0f req %.3f s (%.3f ms/req)", lbl, n, s, 1e3*s/n)
	}
	logf("%s", b.String())
}
