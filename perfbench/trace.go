package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/catgraph"
	"repro/internal/job"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/wire"
)

// span is one timed call (or run of calls of one layer for one request)
// made by the in-process replay. Spans of one request share req; parent is
// the index of the enclosing span, −1 at the top.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a disabled tracer records nothing, which is
// how the untraced replay measures the tracer's own overhead.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string, req, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayInput is what a traced run replays in process: the daemon's job
// shape, the records the daemon held before the timed phase (ingested
// untimed), and the timed phase's requests in the workload's encoding.
type replayInput struct {
	spec    job.Spec
	enc     encoding
	prep    []sample.NodeObservation
	reqs    []batch
	decoded [][]sample.NodeObservation // reqs' records, decoded ahead of the replay
}

// maxReplayReqs bounds the replayed requests (and the decoded copies held
// for them).
const maxReplayReqs = 600

// newReplayJob builds a job like the daemon's default one, checkpointing
// into dir, with the prep records already ingested.
func newReplayJob(spec job.Spec, dir string, prep []sample.NodeObservation) (*job.Job, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	reg, err := job.NewRegistry(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	j, err := reg.Create(spec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(prep); i += 4096 {
		if _, err := j.Acc().IngestBatch(prep[i:min(i+4096, len(prep))]); err != nil {
			return nil, fmt.Errorf("replay prep: %w", err)
		}
	}
	return j, nil
}

// decodeSpan names the decode layer of an encoding.
func (enc encoding) decodeSpan() string {
	if enc.name == "binary" {
		return "wire.records_decode"
	}
	return "json.records_decode"
}

// decodeOnly runs a body through the daemon's decode step for its encoding:
// RecordIter.Reset plus Next over every record for TOPOREC1, encoding/json
// into the daemon's record shape plus conversion for JSON.
func (enc encoding) decodeOnly(it *wire.RecordIter, body []byte) (int, error) {
	if enc.name == "binary" {
		if err := it.Reset(body); err != nil {
			return 0, err
		}
		var rec sample.NodeObservation
		n := 0
		for it.Next(&rec) {
			n++
		}
		return n, nil
	}
	recs, err := decodeJSON(body)
	return len(recs), err
}

// decodeJSON decodes a JSON batch into the daemon's record shape and
// converts it to observations, as the daemon's JSON ingest path does.
func decodeJSON(body []byte) ([]sample.NodeObservation, error) {
	var ws []wireRecord
	if err := json.Unmarshal(body, &ws); err != nil {
		return nil, err
	}
	recs := make([]sample.NodeObservation, len(ws))
	for i, w := range ws {
		recs[i] = sample.NodeObservation{Node: w.Node, Weight: w.Weight, Cat: *w.Cat, Deg: w.Deg, NbrCat: w.NbrCat, NbrCnt: w.NbrCnt, Peers: w.Peers}
	}
	return recs, nil
}

// ingestRequest applies one request's records the way the daemon does for
// its encoding: TOPOREC1 bodies go record by record through the job's
// writer-private Local (Ingest, then Flush) when the job has one and
// through Ingester.Ingest otherwise; JSON bodies go through IngestBatch.
func ingestRequest(j *job.Job, enc encoding, recs []sample.NodeObservation) error {
	if enc.name == "binary" {
		if l := j.TakeLocal(); l != nil {
			defer j.PutLocal(l)
			for _, r := range recs {
				if err := l.Ingest(r); err != nil {
					return err
				}
			}
			l.Flush()
			return nil
		}
		acc := j.Acc()
		for _, r := range recs {
			if err := acc.Ingest(r); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := j.Acc().IngestBatch(recs)
	return err
}

// replay runs the requests in order through decode and ingest, one span
// per layer per request, and returns the job it fed and the wall time of
// the replay. The replay is sequential, so each span is the layer's own
// cost; what the daemon adds under concurrent requests (lock waits, cache
// interference) stays in the ledger's server-side remainder.
func replay(in *replayInput, dir string, tr *tracer) (*job.Job, time.Duration, error) {
	j, err := newReplayJob(in.spec, dir, in.prep)
	if err != nil {
		return nil, 0, err
	}
	var it wire.RecordIter
	t0 := time.Now()
	for i, b := range in.reqs {
		r := tr.begin("request", i, -1)
		s := tr.begin(in.enc.decodeSpan(), i, r)
		if _, err := in.enc.decodeOnly(&it, b.body); err != nil {
			return nil, 0, err
		}
		tr.end(s)
		s = tr.begin("stream.ingest", i, r)
		if err := ingestRequest(j, in.enc, in.decoded[i]); err != nil {
			return nil, 0, err
		}
		tr.end(s)
		tr.end(r)
	}
	return j, time.Since(t0), nil
}

// layerCosts are the per-record costs the replay attributes to each layer.
type layerCosts struct {
	decodeNs, otherDecodeNs, ingestNs, replicatesNs float64
	overhead                                        float64
}

// replayLayers replays in, traced and untraced, plus an untraced replay at
// B = 0 and a decode pass in the other encoding, and returns the
// per-record layer costs with the job of the traced replay.
func (e *env) replayLayers(in *replayInput, label string) (*layerCosts, *job.Job, error) {
	if len(in.reqs) > maxReplayReqs {
		in.reqs = in.reqs[:maxReplayReqs]
	}
	in.decoded = make([][]sample.NodeObservation, len(in.reqs))
	records := 0
	var all []sample.NodeObservation
	for i, b := range in.reqs {
		recs, err := in.enc.decodeAll(b.body)
		if err != nil {
			return nil, nil, err
		}
		in.decoded[i] = recs
		records += len(recs)
		all = append(all, recs...)
	}
	// Each configuration runs three times, in rotation, and keeps its
	// fastest run, so neither cache warmth nor order favours one of them.
	dir := filepath.Join(e.work, "replay")
	zero := *in
	zero.spec.Bootstrap, zero.spec.BootstrapSeed = 0, 0
	var (
		j                       *job.Job
		tr                      *tracer
		plain, traced, zeroWall time.Duration
	)
	keep := func(best *time.Duration, d time.Duration) bool {
		if *best == 0 || d < *best {
			*best = d
			return true
		}
		return false
	}
	for round := 0; round < 3; round++ {
		_, d, err := replay(in, dir, newTracer(false))
		if err != nil {
			return nil, nil, err
		}
		keep(&plain, d)
		if _, d, err = replay(&zero, filepath.Join(e.work, "replay-b0"), newTracer(false)); err != nil {
			return nil, nil, err
		}
		keep(&zeroWall, d)
		t := newTracer(true)
		jt, d, err := replay(in, dir, t)
		if err != nil {
			return nil, nil, err
		}
		if keep(&traced, d) {
			j, tr = jt, t
		}
	}
	self := tr.selfTimes()
	per := func(d time.Duration) float64 { return float64(d) / float64(records) }
	lc := &layerCosts{
		decodeNs: per(self[in.enc.decodeSpan()]),
		ingestNs: per(self["stream.ingest"]),
		overhead: traced.Seconds()/plain.Seconds() - 1,
	}
	// Replicates: the same replay at the workload's B minus at B = 0 (the
	// decode time is common to both and cancels).
	lc.replicatesNs = per(plain) - per(zeroWall)

	// The other encoding's decode cost for the same records.
	other := jsonEncoding
	if in.enc.name != "binary" {
		other = binaryEncoding
	}
	obs, err := other.batches(all, len(in.decoded[0]))
	if err != nil {
		return nil, nil, err
	}
	var it wire.RecordIter
	t0 := time.Now()
	for _, b := range obs {
		if _, err := other.decodeOnly(&it, b.body); err != nil {
			return nil, nil, err
		}
	}
	lc.otherDecodeNs = per(time.Since(t0))
	if err := tr.write(filepath.Join(e.out, fmt.Sprintf("%s-seed%d.jsonl", label, e.seed))); err != nil {
		return nil, nil, err
	}
	logf("replay: %d requests, %d records; traced %.3f s, untraced %.3f s (tracing overhead %.1f%%), B=0 %.3f s",
		len(in.reqs), records, traced.Seconds(), plain.Seconds(), 100*lc.overhead, zeroWall.Seconds())
	return lc, j, nil
}

// decodeAll decodes a body into owned records (replay preparation, untimed).
func (enc encoding) decodeAll(body []byte) ([]sample.NodeObservation, error) {
	if enc.name == "binary" {
		return wire.DecodeRecords(body)
	}
	return decodeJSON(body)
}

// medianOf times fn n times and returns the median in ms.
func medianOf(n int, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0))/1e6)
	}
	return median(ts), nil
}

// stateProbes times the read and durability layers on the replay job's
// final state: job and stream snapshots, the CI extraction of one
// /estimate?ci=0.95 document, the category-graph build, the /sums export
// and encode, one checkpoint frame and one restore.
func (e *env) stateProbes(j *job.Job, bump sample.NodeObservation) error {
	acc := j.Acc()
	var err error
	var ms float64
	// job.Job.Snapshot after a one-record ingest: always a cache miss.
	if ms, err = medianOf(5, func() error {
		if err := acc.Ingest(bump); err != nil {
			return err
		}
		_, _, err := j.Snapshot()
		return err
	}); err != nil {
		return err
	}
	e.set("job.snapshot_ms", "ms", ms)
	var snap *stream.Snapshot
	if ms, err = medianOf(5, func() error {
		snap, err = acc.Snapshot()
		return err
	}); err != nil {
		return err
	}
	e.set("stream.snapshot_ms", "ms", ms)
	var cg *catgraph.Graph
	if ms, err = medianOf(5, func() error {
		cg, err = catgraph.FromEstimate(snap.Result, j.Names())
		return err
	}); err != nil {
		return err
	}
	e.set("catgraph.build_ms", "ms", ms)
	// Every BootSnapshot CI call one /estimate?ci=0.95 document makes (a
	// no-op without bootstrap replicates).
	ms, _ = medianOf(5, func() error {
		if snap.Boot == nil {
			return nil
		}
		snap.Boot.PopCI(0.95)
		for c := range snap.Result.Sizes {
			snap.Boot.SizeCI(c, 0.95)
			snap.Boot.WithinCI(c, 0.95)
		}
		for _, ed := range cg.Edges() {
			snap.Boot.WeightCI(ed.A, ed.B, 0.95)
		}
		return nil
	})
	e.set("uncert.ci_ms", "ms", ms)
	if ms, err = medianOf(3, func() error {
		st, err := acc.Export()
		if err != nil {
			return err
		}
		_, err = wire.Encode(st)
		return err
	}); err != nil {
		return err
	}
	e.set("wire.sums_encode_ms", "ms", ms)

	path := filepath.Join(e.work, "replay", j.Name()+".ckpt")
	if ms, err = medianOf(1, func() error {
		_, err := j.Checkpoint()
		return err
	}); err != nil {
		return err
	}
	e.set("job.checkpoint_ms", "ms", ms)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	e.set("wire.checkpoint_bytes", "bytes", float64(fi.Size()))
	gen := acc.Gen()
	if ms, err = medianOf(1, func() error {
		reg, err := job.NewRegistry(filepath.Dir(path), 0, nil)
		if err != nil {
			return err
		}
		r, err := reg.Create(j.Spec())
		if err != nil {
			return err
		}
		if r.Acc().Gen() != gen {
			return fmt.Errorf("restored job is at generation %d, checkpointed %d", r.Acc().Gen(), gen)
		}
		return nil
	}); err != nil {
		return err
	}
	e.set("job.restore_ms", "ms", ms)
	return nil
}

// gcLine matches one GODEBUG=gctrace=1 line: cycle, start offset, and the
// wall-clock phases (STW sweep termination + concurrent mark + STW mark
// termination).
var gcLine = regexp.MustCompile(`^gc \d+ @([0-9.]+)s [0-9]+%: ([0-9.]+)\+([0-9.]+)\+([0-9.]+) ms clock`)

// gcStats counts the daemon's GC cycles that started inside [from, to) and
// sums their stop-the-world pauses in ms.
func gcStats(d *daemon, from, to time.Time) (cycles int, pauseMs float64, err error) {
	f, err := os.Open(d.logPath)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	lo, hi := from.Sub(d.started).Seconds(), to.Sub(d.started).Seconds()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		m := gcLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		at, _ := strconv.ParseFloat(m[1], 64)
		if at < lo || at >= hi {
			continue
		}
		stw1, _ := strconv.ParseFloat(m[2], 64)
		stw2, _ := strconv.ParseFloat(m[4], 64)
		cycles++
		pauseMs += stw1 + stw2
	}
	return cycles, pauseMs, sc.Err()
}
