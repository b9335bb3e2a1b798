package job

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crawl"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/wire"
)

// jobObs generates the deterministic observation stream shared by the
// durability tests: 31 distinct nodes over 4 categories with star data.
func jobObs(i int) sample.NodeObservation {
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

// inducedObs is the induced-scenario counterpart of jobObs: the same node
// sequence, with each edge {v, v+1 mod 31} reported once by the second draw
// of v.
func inducedObs(i int) sample.NodeObservation {
	node := int32(i % 31)
	obs := sample.NodeObservation{Node: node, Cat: node % 4, Weight: 1 + float64(node%6)/5}
	if i >= 31 && i < 62 {
		obs.Peers = []int32{(node + 1) % 31}
	}
	return obs
}

func ingestRange(t *testing.T, j *Job, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		rec := jobObs(i)
		if !j.Spec().Star {
			rec = inducedObs(i)
		}
		if err := j.Acc().Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func testSpec(name string) Spec {
	return Spec{Name: name, K: 4, Star: true, N: 800, Bootstrap: 24, BootstrapSeed: 7}
}

// legacyCheckpoint writes the checkpoint file a star job left behind before
// star jobs ran epoch-merged: its spec payload carries the retired "shards"
// key and its state is a single-lock accumulator's ExportFull after records
// [0, cut).
func legacyCheckpoint(t *testing.T, dir, name string, cut int) {
	t.Helper()
	spec := testSpec(name)
	spec.normalize()
	cfg, err := spec.StreamConfig()
	if err != nil {
		t.Fatal(err)
	}
	acc, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		if err := acc.Ingest(jobObs(i)); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := acc.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := `{"name":"` + name + `","k":4,"star":true,"n":800,"size":"auto","shards":1,"bootstrap":24,"bootstrap_seed":7}`
	if _, err := wire.AppendCheckpoint(f, &wire.Checkpoint{Name: name, Config: []byte(payload), Gen: fs.State.Gen, State: fs}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(Spec{Name: "bad name!", K: 2, Star: true}); err == nil {
		t.Error("created a job with a filename-hostile name")
	}
	if _, err := r.Create(Spec{Name: "nok", Star: true}); err == nil {
		t.Error("created a job with no categories")
	}
	a, err := r.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(testSpec("alpha")); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := r.Create(Spec{Name: "named", Names: []string{"x", "y", "z"}, Star: true}); err != nil {
		t.Fatal(err)
	}
	nj, _ := r.Get("named")
	if nj.Spec().K != 3 || nj.Names()[2] != "z" {
		t.Errorf("names did not derive k: k=%d names=%v", nj.Spec().K, nj.Names())
	}
	if got := a.Names(); len(got) != 4 || got[0] != "C0" {
		t.Errorf("default names = %v", got)
	}

	names := make([]string, 0, 2)
	for _, j := range r.List() {
		names = append(names, j.Name())
	}
	if strings.Join(names, ",") != "alpha,named" {
		t.Errorf("list = %v", names)
	}

	ingestRange(t, a, 0, 50)
	if ok, err := a.Checkpoint(); err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	path := filepath.Join(dir, "alpha.ckpt")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	// Unchanged generation → no new frame.
	if ok, err := a.Checkpoint(); err != nil || ok {
		t.Fatalf("no-advance checkpoint: ok=%v err=%v", ok, err)
	}

	if err := r.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("delete left the checkpoint file behind: %v", err)
	}
	if _, err := r.Get("alpha"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete: %v", err)
	}
	if err := r.Delete("alpha"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartResume is the package-level durability contract: kill the
// registry after a checkpoint, build a new one over the same directory, and
// the job resumes — generation, estimates and bootstrap replicates — within
// 1e-9 of a run that was never interrupted. Covered for an induced job
// (single-lock engine), a star job (epoch engine), and the cross-design
// restart: a star job checkpointed by the single-lock engine, under a spec
// that still carries the retired "shards" key, resumes on the epoch engine
// and also matches the batch estimator over the whole stream.
func TestRestartResume(t *testing.T) {
	const cut, end = 150, 300
	cases := []struct {
		name   string
		star   bool
		legacy bool
	}{
		{"single", false, false},
		{"epoch", true, false},
		{"cross", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := testSpec("alpha")
			spec.Star = tc.star

			// The uninterrupted baseline.
			base, err := NewRegistry("", 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := spec
			ref.Name = "ref"
			bj, err := base.Create(ref)
			if err != nil {
				t.Fatal(err)
			}
			ingestRange(t, bj, 0, end)
			want, _, err := bj.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			// First life: ingest the head, checkpoint via Shutdown.
			if tc.legacy {
				legacyCheckpoint(t, dir, "alpha", cut)
			} else {
				r1, err := NewRegistry(dir, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				j1, err := r1.Create(spec)
				if err != nil {
					t.Fatal(err)
				}
				ingestRange(t, j1, 0, cut)
				if err := r1.Shutdown(); err != nil {
					t.Fatal(err)
				}
			}

			// Second life: same directory.
			r2, err := NewRegistry(dir, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			j2, err := r2.Create(spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, epoch := j2.Acc().(*stream.EpochAccumulator); epoch != tc.star {
				t.Fatalf("restored engine %T for star=%v", j2.Acc(), tc.star)
			}
			if gen := j2.Acc().Gen(); gen != cut {
				t.Fatalf("restored gen = %d, want %d", gen, cut)
			}
			if ckGen, _ := j2.CheckpointStatus(); ckGen != cut {
				t.Fatalf("restored checkpoint gen = %d, want %d", ckGen, cut)
			}
			ingestRange(t, j2, cut, end)
			got, _, err := j2.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			if got.Draws != want.Draws || got.Distinct != want.Distinct {
				t.Fatalf("draws/distinct: got %d/%d want %d/%d",
					got.Draws, got.Distinct, want.Draws, want.Distinct)
			}
			close := func(a, b float64) bool {
				if a == b {
					return true
				}
				return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
			}
			if !close(got.PopEstimate, want.PopEstimate) {
				t.Errorf("pop estimate %.17g vs %.17g", got.PopEstimate, want.PopEstimate)
			}
			for c := range want.Result.Sizes {
				if !close(got.Result.Sizes[c], want.Result.Sizes[c]) {
					t.Errorf("size[%d] %.17g vs %.17g", c, got.Result.Sizes[c], want.Result.Sizes[c])
				}
			}
			if tc.legacy {
				o := &sample.Observation{K: 4, Star: true}
				for i := 0; i < end; i++ {
					if err := o.Append(jobObs(i)); err != nil {
						t.Fatal(err)
					}
				}
				oracle, err := core.Estimate(o, core.Options{N: 800})
				if err != nil {
					t.Fatal(err)
				}
				for c := range oracle.Sizes {
					if !close(got.Result.Sizes[c], oracle.Sizes[c]) {
						t.Errorf("size[%d] %.17g vs batch %.17g", c, got.Result.Sizes[c], oracle.Sizes[c])
					}
				}
				oracle.Weights.ForEach(func(x, y int32, w float64) {
					if gw := got.Result.Weights.Get(x, y); math.IsNaN(gw) != math.IsNaN(w) || (!math.IsNaN(w) && !close(gw, w)) {
						t.Errorf("weight(%d,%d) %.17g vs batch %.17g", x, y, gw, w)
					}
				})
			}
			if want.Boot != nil {
				if got.Boot == nil {
					t.Fatal("restored run lost its bootstrap replicates")
				}
				for c := range want.Boot.Sizes {
					for b := range want.Boot.Sizes[c] {
						gb, wb := got.Boot.Sizes[c][b], want.Boot.Sizes[c][b]
						if math.IsNaN(gb) != math.IsNaN(wb) || (!math.IsNaN(wb) && !close(gb, wb)) {
							t.Fatalf("boot size replicate [%d][%d] %.17g vs %.17g", c, b, gb, wb)
						}
					}
				}
			}
			if err := r2.Shutdown(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRestoreIdentityMismatch pins the compatibility rule: serving fields
// may change across a restart, identity fields may not.
func TestRestoreIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	r1, _ := NewRegistry(dir, 0, nil)
	j, err := r1.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, j, 0, 40)
	if err := r1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	bad := map[string]Spec{}
	s := testSpec("alpha")
	s.K = 5
	bad["k"] = s
	s = testSpec("alpha")
	s.Star = false
	bad["star"] = s
	s = testSpec("alpha")
	s.Bootstrap = 0
	bad["bootstrap-off"] = s
	s = testSpec("alpha")
	s.BootstrapSeed = 99
	bad["bootstrap-seed"] = s

	for name, spec := range bad {
		r, _ := NewRegistry(dir, 0, nil)
		if _, err := r.Create(spec); err == nil {
			t.Errorf("%s: restore accepted an incompatible spec", name)
		}
	}

	// Serving fields are free to change.
	ok := testSpec("alpha")
	ok.N = 123456
	ok.Size = "star"
	r, _ := NewRegistry(dir, 0, nil)
	if _, err := r.Create(ok); err != nil {
		t.Errorf("serving-field change rejected: %v", err)
	}
}

// TestTornTailTruncation writes garbage after the last intact frame (the
// crash-mid-append signature) and checks that Create both restores the
// intact frame and trims the file so the next append stays readable.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	r1, _ := NewRegistry(dir, 0, nil)
	j, err := r1.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, j, 0, 60)
	if err := r1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "alpha.ckpt")
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-frame-garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r2, _ := NewRegistry(dir, 0, nil)
	j2, err := r2.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if gen := j2.Acc().Gen(); gen != 60 {
		t.Fatalf("restored gen = %d, want 60", gen)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(intact) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", len(after), len(intact))
	}

	// The next cycle appends a readable second frame.
	ingestRange(t, j2, 60, 90)
	if ok, err := j2.Checkpoint(); err != nil || !ok {
		t.Fatalf("post-trim checkpoint: ok=%v err=%v", ok, err)
	}
	if err := r2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	r3, _ := NewRegistry(dir, 0, nil)
	j3, err := r3.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if gen := j3.Acc().Gen(); gen != 90 {
		t.Fatalf("second-cycle restore gen = %d, want 90", gen)
	}
}

// TestBorrowedLocals covers the locals a job lends out of its epoch-merged
// accumulator's pool: PutLocal publishes whatever the borrower left
// unflushed.
func TestBorrowedLocals(t *testing.T) {
	r, _ := NewRegistry("", 0, nil)
	j, err := r.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}

	solo := testSpec("solo")
	solo.Star = false
	single, _ := r.Create(solo)
	if single.TakeLocal() != nil {
		t.Error("single-lock job handed out a local")
	}

	l := j.TakeLocal()
	if l == nil {
		t.Fatal("epoch job refused a local")
	}
	for i := 0; i < 80; i++ {
		if err := l.Ingest(jobObs(i)); err != nil {
			t.Fatal(err)
		}
	}
	if gen := j.Acc().Gen(); gen != 0 {
		t.Fatalf("unflushed local already published gen %d", gen)
	}
	j.PutLocal(l)
	if gen := j.Acc().Gen(); gen != 80 {
		t.Fatalf("gen after PutLocal = %d, want 80", gen)
	}
}

// TestRecordsSinceCheckpoint pins the at-risk count: Gen minus the last
// frame's generation, reported for every job with a checkpoint path —
// before its first frame too — and zero right after a checkpoint or a
// restore.
func TestRecordsSinceCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r, _ := NewRegistry(dir, 0, nil)
	j, err := r.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := j.RecordsSinceCheckpoint(); !ok || n != 0 {
		t.Fatalf("fresh job: records since checkpoint = %d, %v; want 0, true", n, ok)
	}
	ingestRange(t, j, 0, 50)
	if n, _ := j.RecordsSinceCheckpoint(); n != 50 {
		t.Fatalf("before the first frame: records since checkpoint = %d, want 50", n)
	}
	if _, err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, _ := j.RecordsSinceCheckpoint(); n != 0 {
		t.Fatalf("after checkpoint: records since checkpoint = %d, want 0", n)
	}
	ingestRange(t, j, 50, 60)
	if n, _ := j.RecordsSinceCheckpoint(); n != 10 {
		t.Fatalf("after 10 more: records since checkpoint = %d, want 10", n)
	}

	// A restore resumes at the last frame: nothing is at risk yet.
	r2, _ := NewRegistry(dir, 0, nil)
	j2, err := r2.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := j2.RecordsSinceCheckpoint(); !ok || n != 0 || j2.Acc().Gen() != 50 {
		t.Fatalf("restored job: records since checkpoint = %d, %v at gen %d; want 0, true at 50", n, ok, j2.Acc().Gen())
	}

	// Without a checkpoint path there is no durable state to measure.
	mem, _ := NewRegistry("", 0, nil)
	jm, err := mem.Create(testSpec("mem"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := jm.RecordsSinceCheckpoint(); ok {
		t.Fatal("job without a checkpoint path reported records since checkpoint")
	}
}

// TestPeriodicCheckpoint runs the registry ticker at a short interval and
// waits for a frame to appear without an explicit Checkpoint call.
func TestPeriodicCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(dir, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := r.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	ingestRange(t, j, 0, 30)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if gen, _ := j.CheckpointStatus(); gen == 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker never checkpointed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// gatedSource blocks every neighbor query until the gate opens — it keeps a
// test crawl verifiably "running" without timing assumptions.
type gatedSource struct {
	graph.Source
	gate    chan struct{}
	touched sync.WaitGroup
	once    sync.Once
}

func (g *gatedSource) Neighbors(v int32) []int32 {
	g.once.Do(g.touched.Done)
	<-g.gate
	return g.Source.Neighbors(v)
}

// TestCrawlSlots pins the per-job crawl rule: one crawl at a time within a
// job, independent crawls across jobs, and no deletion under a live crawl.
func TestCrawlSlots(t *testing.T) {
	g, err := gen.Social(randx.New(44), gen.SocialConfig{
		N: 300, MeanDeg: 8, Dist: gen.PowerLaw, Shape: 2.5,
		Comms: 4, CommZipf: 0.8, Mixing: 0.3, Connect: true, SetAsCats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewRegistry("", 0, nil)
	spec := Spec{Name: "a", K: g.NumCategories(), Star: true, N: float64(g.N())}
	a, err := r.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "b"
	b, err := r.Create(spec)
	if err != nil {
		t.Fatal(err)
	}

	cfg := crawl.Config{Walkers: 2, Star: true, N: float64(g.N()), Seed: 3, MaxDraws: 400, CheckEvery: 400}
	slow := &gatedSource{Source: g, gate: make(chan struct{})}
	slow.touched.Add(1)
	ca, err := a.StartCrawl(slow, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow.touched.Wait() // the crawl is provably inside a walk now

	if _, err := a.StartCrawl(g, cfg); !errors.Is(err, ErrCrawlRunning) {
		t.Errorf("second crawl in job a: %v", err)
	}
	if err := r.Delete("a"); !errors.Is(err, ErrCrawlRunning) {
		t.Errorf("delete under live crawl: %v", err)
	}
	// A different job's slot is independent.
	cb, err := b.StartCrawl(g, cfg)
	if err != nil {
		t.Fatalf("concurrent crawl in job b: %v", err)
	}
	if _, err := cb.Wait(); err != nil {
		t.Fatal(err)
	}

	close(slow.gate)
	if _, err := ca.Wait(); err != nil {
		t.Fatal(err)
	}
	// Finished crawls free the slot and the job.
	if _, err := a.StartCrawl(g, cfg); err != nil {
		t.Errorf("slot not freed after Wait: %v", err)
	}
	if c := a.Crawl(); c == nil {
		t.Error("job lost its crawl handle")
	}
	<-a.Crawl().Done()
	if err := r.Delete("a"); err != nil {
		t.Errorf("delete after crawls done: %v", err)
	}
}

// TestAdoptSkipsCheckpoint: adopted jobs (the merge pool) serve and list
// like any other but are never checkpointed.
func TestAdoptSkipsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r, _ := NewRegistry(dir, 0, nil)
	pool, err := stream.NewPool(stream.Config{K: 3, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	j, err := r.Adopt(Spec{Name: DefaultName, K: 3, Star: true}, pool, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := j.Checkpoint(); err != nil || ok {
		t.Fatalf("adopted job checkpointed: ok=%v err=%v", ok, err)
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, DefaultName+".ckpt")); !os.IsNotExist(err) {
		t.Errorf("adopted job left a checkpoint file: %v", err)
	}
}

// TestCheckpointCompaction drives a job past the registry's frame limit and
// pins the whole compaction contract: the file shrinks to one frame, appends
// keep working afterwards (the O_APPEND handle is reopened, not left on the
// renamed-away inode), and a restore over the compacted file resumes at the
// exact generation.
func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.SetMaxFrames(3)
	j, err := r.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "alpha.ckpt")

	frameCount := func() (frames int, gen uint64) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cp, frames, tail := wire.ScanCheckpoints(data)
		if tail != 0 {
			t.Fatalf("checkpoint file has %d tail bytes", tail)
		}
		if cp != nil {
			gen = cp.Gen
		}
		return frames, gen
	}

	for round := 1; round <= 3; round++ {
		ingestRange(t, j, (round-1)*40, round*40)
		if ok, err := j.Checkpoint(); err != nil || !ok {
			t.Fatalf("round %d checkpoint: ok=%v err=%v", round, ok, err)
		}
		if frames, _ := frameCount(); frames != round {
			t.Fatalf("round %d: %d frames, want %d", round, frames, round)
		}
	}

	// The 4th frame crosses the limit: the file compacts to its newest frame.
	ingestRange(t, j, 120, 160)
	if ok, err := j.Checkpoint(); err != nil || !ok {
		t.Fatalf("triggering checkpoint: ok=%v err=%v", ok, err)
	}
	frames, gen := frameCount()
	if frames != 1 {
		t.Fatalf("after compaction: %d frames, want 1", frames)
	}
	if gen != 160 {
		t.Fatalf("surviving frame gen = %d, want 160", gen)
	}

	// The next append must land in the NEW file.
	ingestRange(t, j, 160, 200)
	if ok, err := j.Checkpoint(); err != nil || !ok {
		t.Fatalf("post-compaction checkpoint: ok=%v err=%v", ok, err)
	}
	if frames, gen = frameCount(); frames != 2 || gen != 200 {
		t.Fatalf("post-compaction append: %d frames at gen %d, want 2 at 200", frames, gen)
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Restore over the compacted file resumes exactly.
	r2, err := NewRegistry(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if g := j2.Acc().Gen(); g != 200 {
		t.Fatalf("restored gen = %d, want 200", g)
	}
	// The restored frame count seeds the next compaction cycle.
	ingestRange(t, j2, 200, 240)
	if _, err := j2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if frames, gen = frameCount(); frames != 3 || gen != 240 {
		t.Fatalf("restored registry append: %d frames at gen %d, want 3 at 240", frames, gen)
	}
	if err := r2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreAll pins the -restore-jobs boot path: every checkpoint file in
// the directory comes back as a job under its persisted spec, already
// registered names are skipped, and the restored streams match the
// originals exactly.
func TestRestoreAll(t *testing.T) {
	dir := t.TempDir()
	r1, err := NewRegistry(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]Spec{
		"alpha": testSpec("alpha"),
		"beta":  {Name: "beta", Names: []string{"w", "x", "y", "z"}, Star: true, Bootstrap: 8, BootstrapSeed: 3},
	}
	wantGen := map[string]uint64{"alpha": 90, "beta": 150}
	for name, spec := range specs {
		j, err := r1.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		ingestRange(t, j, 0, int(wantGen[name]))
	}
	if err := r1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// A stray non-checkpoint file and an empty checkpoint file must both be
	// skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "empty.ckpt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := NewRegistry(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// "alpha" is already registered (the daemon's default-create path);
	// RestoreAll must only pick up what is missing.
	if _, err := r2.Create(testSpec("alpha")); err != nil {
		t.Fatal(err)
	}
	restored, err := r2.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].Name() != "beta" {
		names := make([]string, 0, len(restored))
		for _, j := range restored {
			names = append(names, j.Name())
		}
		t.Fatalf("RestoreAll returned %v, want [beta]", names)
	}
	for name, gen := range wantGen {
		j, err := r2.Get(name)
		if err != nil {
			t.Fatalf("job %q not present after RestoreAll: %v", name, err)
		}
		if g := j.Acc().Gen(); g != gen {
			t.Fatalf("job %q restored at gen %d, want %d", name, g, gen)
		}
	}
	beta, _ := r2.Get("beta")
	if spec := beta.Spec(); spec.K != 4 || spec.Bootstrap != 8 || spec.BootstrapSeed != 3 || !spec.Star {
		t.Fatalf("beta restored under the wrong spec: %+v", spec)
	}
	if names := beta.Names(); len(names) != 4 || names[0] != "w" {
		t.Fatalf("beta names = %v", names)
	}
	// Idempotent: nothing new on a second sweep.
	again, err := r2.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second RestoreAll restored %d jobs", len(again))
	}
	if err := r2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
