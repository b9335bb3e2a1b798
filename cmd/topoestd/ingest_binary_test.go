package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/job"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/wire"
)

// postBin posts a TOPOREC1 binary batch to an ingest route.
func postBin(t *testing.T, srv *server, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.RecordsContentType)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// obsRecs materializes records [lo, hi) of the shared deterministic stream.
func obsRecs(lo, hi int) []sample.NodeObservation {
	recs := make([]sample.NodeObservation, 0, hi-lo)
	for i := lo; i < hi; i++ {
		recs = append(recs, httpObs(i))
	}
	return recs
}

// parityServer builds a full jobs-enabled server whose default job carries
// bootstrap replicates, so /estimate?ci= exercises the replicate state too.
// The default job runs the engine the daemon picks for its star scenario
// (epoch-merged); with singleLock it instead adopts a single-lock star
// accumulator of the same configuration, while jobs created over POST /jobs
// still get the epoch engine.
func parityServer(t *testing.T, singleLock bool) *server {
	t.Helper()
	spec := job.Spec{
		Name: job.DefaultName, K: 4, Star: true, N: 800,
		Bootstrap: 16, BootstrapSeed: 7,
	}
	if singleLock {
		cfg, err := spec.StreamConfig()
		if err != nil {
			t.Fatal(err)
		}
		acc, err := stream.NewAccumulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return newServer(acc, nil)
	}
	reg, err := job.NewRegistry("", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	def, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	return newServerWithJobs(reg, def)
}

// TestBinaryIngestParity drives the same record stream through JSON and
// TOPOREC1 ingest — on both the un-prefixed default routes and a named
// /jobs/{name}/ tenant, over both accumulator designs — and requires the
// served output to be bit-identical: /estimate with bootstrap confidence
// intervals, and the /sums wire export. The encodings must be two spellings
// of one ingest path, not two paths.
func TestBinaryIngestParity(t *testing.T) {
	for name, singleLock := range map[string]bool{"single-lock": true, "epoch": false} {
		t.Run(name, func(t *testing.T) {
			jsrv, bsrv := parityServer(t, singleLock), parityServer(t, singleLock)
			for _, s := range []*server{jsrv, bsrv} {
				if w := do(t, s, "POST", "/jobs", `{"name":"teal"}`); w.Code != 201 {
					t.Fatalf("create job: %d %s", w.Code, w.Body)
				}
			}
			for lo := 0; lo < 120; lo += 40 {
				recs := obsRecs(lo, lo+40)
				jb, err := json.Marshal(recs)
				if err != nil {
					t.Fatal(err)
				}
				bb, err := wire.EncodeRecords(recs)
				if err != nil {
					t.Fatal(err)
				}
				for _, route := range []string{"/ingest", "/jobs/teal/ingest"} {
					wj := post(t, jsrv, route, string(jb))
					wb := postBin(t, bsrv, route, bb)
					if wj.Code != 200 || wb.Code != 200 {
						t.Fatalf("%s: json %d %s / binary %d %s", route, wj.Code, wj.Body, wb.Code, wb.Body)
					}
					if !bytes.Equal(wj.Body.Bytes(), wb.Body.Bytes()) {
						t.Fatalf("%s ack diverged:\njson   %s\nbinary %s", route, wj.Body, wb.Body)
					}
				}
			}
			for _, path := range []string{
				"/estimate", "/estimate?ci=0.9", "/sums",
				"/jobs/teal/estimate?ci=0.9", "/jobs/teal/sums",
			} {
				a, b := get(t, jsrv, path), get(t, bsrv, path)
				if a.Code != 200 || b.Code != 200 {
					t.Fatalf("GET %s: json %d / binary %d", path, a.Code, b.Code)
				}
				if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
					t.Fatalf("GET %s diverged between encodings:\njson   %s\nbinary %s", path, a.Body, b.Body)
				}
			}
		})
	}
}

// TestBinaryIngest422Parity pins the retry contract across encodings: the
// same mid-batch offender yields byte-identical 422 bodies — "ingested" and
// "index" mean the same thing in both — and the documented
// drop-prefix-and-resend retry converges to the same state.
func TestBinaryIngest422Parity(t *testing.T) {
	jsrv, bsrv := parityServer(t, false), parityServer(t, false)
	recs := []sample.NodeObservation{httpObs(1), httpObs(2), {Node: 5, Cat: 9}, httpObs(3)}
	jb, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := wire.EncodeRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	wj := post(t, jsrv, "/ingest", string(jb))
	wb := postBin(t, bsrv, "/ingest", bb)
	if wj.Code != 422 || wb.Code != 422 {
		t.Fatalf("want 422/422, got json %d / binary %d", wj.Code, wb.Code)
	}
	if !bytes.Equal(wj.Body.Bytes(), wb.Body.Bytes()) {
		t.Fatalf("422 bodies diverged:\njson   %s\nbinary %s", wj.Body, wb.Body)
	}
	var doc struct{ Ingested, Total, Index int }
	mustDecode(t, wb.Body.Bytes(), &doc)
	if doc.Ingested != 2 || doc.Total != 4 || doc.Index != 2 {
		t.Fatalf("422 body = %+v, want ingested=2 total=4 index=2", doc)
	}
	// Retry the remainder (offender fixed) on both and require convergence.
	rest := []sample.NodeObservation{{Node: 5, Cat: 1}, httpObs(3)}
	jb, _ = json.Marshal(rest)
	bb, _ = wire.EncodeRecords(rest)
	if w := post(t, jsrv, "/ingest", string(jb)); w.Code != 200 {
		t.Fatalf("json retry: %d %s", w.Code, w.Body)
	}
	if w := postBin(t, bsrv, "/ingest", bb); w.Code != 200 {
		t.Fatalf("binary retry: %d %s", w.Code, w.Body)
	}
	a, b := get(t, jsrv, "/sums"), get(t, bsrv, "/sums")
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatal("post-retry /sums diverged between encodings")
	}
}

// TestBinaryIngestMalformed pins the 400 contract: a body that fails frame
// validation — bad magic, corrupt payload, or a truncated tail — is
// rejected whole before any record is applied, exactly like unparseable
// JSON.
func TestBinaryIngestMalformed(t *testing.T) {
	srv := parityServer(t, false)
	good, err := wire.EncodeRecords(obsRecs(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty body":      {},
		"bad magic":       append([]byte("TOPOREC9"), good[8:]...),
		"flipped payload": func() []byte { b := bytes.Clone(good); b[len(b)-3] ^= 0x40; return b }(),
		"truncated":       good[:len(good)-5],
		"json body":       []byte(`[{"node":1,"cat":0}]`),
	}
	for name, body := range cases {
		if w := postBin(t, srv, "/ingest", body); w.Code != 400 {
			t.Errorf("%s: got %d %s, want 400", name, w.Code, w.Body)
		}
	}
	if w := get(t, srv, "/estimate"); w.Code == 200 {
		t.Fatalf("rejected batches were applied: /estimate = %d %s", w.Code, w.Body)
	}
	// A parameterized content type still selects the binary decoder.
	req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(good))
	req.Header.Set("Content-Type", wire.RecordsContentType+"; charset=binary")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("parameterized content type: %d %s", w.Code, w.Body)
	}
}

// TestIngestFlushConflict pins the 409 contract for records a flush drops.
// The response body is checked on a constructed conflict; then concurrent
// JSON and binary batches give the same fresh nodes contradicting
// categories, so each batch either lands, stops at a per-index 422, or
// loses nodes at its flush (409) — and in every case the acknowledged
// counts ("ingested" of a 200 or 422, "applied" of a 409) sum to the
// job's draws.
func TestIngestFlushConflict(t *testing.T) {
	type conflictDoc struct {
		Applied, Dropped, Total int
		Index                   *int
	}
	for _, fc := range []*stream.FlushConflictError{
		{Applied: 3, Dropped: 2},
		{Applied: 3, Dropped: 2, Err: errors.New("bad record")},
	} {
		total := fc.Applied + fc.Dropped + 1
		w := httptest.NewRecorder()
		writeIngestError(w, fc.Applied, total, fc)
		var doc conflictDoc
		mustDecode(t, w.Body.Bytes(), &doc)
		if w.Code != http.StatusConflict || doc.Applied != 3 || doc.Dropped != 2 || doc.Total != total ||
			(doc.Index != nil) != (fc.Err != nil) || (doc.Index != nil && *doc.Index != 5) {
			t.Fatalf("conflict response %d %s", w.Code, w.Body)
		}
	}

	srv := parityServer(t, false)
	const rounds, callers, perBatch = 40, 4, 200
	var mu sync.Mutex
	acked := 0
	codes := map[int]int{}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			recs := make([]sample.NodeObservation, perBatch)
			for i := range recs {
				recs[i] = sample.NodeObservation{Node: int32(r*perBatch + i), Cat: int32(c % 2)}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var w *httptest.ResponseRecorder
				if c < callers/2 {
					body, err := wire.EncodeRecords(recs)
					if err != nil {
						t.Error(err)
						return
					}
					req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
					req.Header.Set("Content-Type", wire.RecordsContentType)
					w = httptest.NewRecorder()
					srv.ServeHTTP(w, req)
				} else {
					body, err := json.Marshal(recs)
					if err != nil {
						t.Error(err)
						return
					}
					w = httptest.NewRecorder()
					srv.ServeHTTP(w, httptest.NewRequest("POST", "/ingest", bytes.NewReader(body)))
				}
				var doc struct {
					Ingested, Applied, Dropped int
				}
				if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
					t.Errorf("decode %s: %v", w.Body, err)
					return
				}
				n := doc.Ingested
				switch w.Code {
				case http.StatusOK, http.StatusUnprocessableEntity:
				case http.StatusConflict:
					if doc.Dropped < 1 || doc.Applied+doc.Dropped > perBatch {
						t.Errorf("409 body %s", w.Body)
					}
					n = doc.Applied
				default:
					t.Errorf("unexpected response %d %s", w.Code, w.Body)
				}
				mu.Lock()
				acked += n
				codes[w.Code]++
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	if draws := srv.def.Acc().Draws(); draws != acked {
		t.Fatalf("draws = %d, want the acknowledged %d (responses %v)", draws, acked, codes)
	}
	t.Logf("responses by status: %v", codes)
}
