package obs

import (
	"io"
	"strconv"
	"testing"
	"time"
)

// BenchmarkObsCounterInc prices the per-record instrumentation cost: one
// Inc on a striped counter is what the ingest, walk-step and block-cache
// hot paths each pay.
func BenchmarkObsCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.NewCounter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkObsCounterIncParallel is the contended case — the reason the
// counter is striped: concurrent walkers and ingest writers must not
// serialize on the instrumentation they share.
func BenchmarkObsCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.NewCounter("bench_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkObsHistogramObserve prices one latency observation (two atomic
// adds plus a CAS) — the snapshot/checkpoint/request path cost.
func BenchmarkObsHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("bench_seconds", "", LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

// BenchmarkObsVecWith prices a label resolution (RLock + map lookup) — why
// hot paths cache the child instead of resolving labels per event.
func BenchmarkObsVecWith(b *testing.B) {
	r := NewRegistry()
	vec := r.NewCounterVec("bench_total", "", "reason")
	vec.With("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vec.With("x").Inc()
	}
}

// BenchmarkObsTimerObserve prices the full latency-timing idiom around an
// instrumented section: two clock reads plus the histogram update.
func BenchmarkObsTimerObserve(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("bench_seconds", "", LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveSince(time.Now())
	}
}

// BenchmarkObsWritePrometheus prices a full scrape of a registry the size
// of the daemon's (a few dozen families, labeled children, histograms).
func BenchmarkObsWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.NewCounter("c"+strconv.Itoa(i)+"_total", "help").Add(int64(i))
	}
	vec := r.NewGaugeVec("g", "help", "cat")
	for i := 0; i < 20; i++ {
		vec.With(strconv.Itoa(i)).Set(float64(i))
	}
	for i := 0; i < 5; i++ {
		h := r.NewHistogram("h"+strconv.Itoa(i)+"_seconds", "help", LatencyBuckets())
		h.Observe(0.01)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
