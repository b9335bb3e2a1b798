package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// batch is one pre-encoded request body. Bodies are built before a phase
// starts, so encoding never sits on the timed path.
type batch struct {
	body    []byte
	records int
}

// sendFunc delivers one batch and reports whether the server acknowledged
// all of it; any other outcome (non-2xx, a 422 partial batch, a transport
// error, a timeout) is a failure.
type sendFunc func(ctx context.Context, b batch) error

// outcome is one request of an open-loop phase, with times relative to the
// phase start: when it was due, when a sender actually sent it, and when
// the reply arrived.
type outcome struct {
	due, sent, done time.Duration
	records         int
	failed          bool
}

// latency is the request's time from its scheduled send to its reply, so a
// stall that delays later sends is charged to them.
func (o outcome) latency() time.Duration { return o.done - o.due }

// lateness is how far behind schedule the sender was.
func (o outcome) lateness() time.Duration { return o.sent - o.due }

// phase is the record of one open-loop run.
type phase struct {
	rate    float64 // offered requests per second
	out     []outcome
	elapsed time.Duration
}

// runOpenLoop offers batches at a fixed rate: request i is due at
// start + i/rate no matter how earlier requests fared. senders goroutines
// (one persistent connection each) take requests in due order from a shared
// queue; a sender that is still busy when a request falls due sends it late,
// and that lateness is counted in the request's latency. The function
// returns once every request has been answered; when ctx ends first, the
// requests not yet sent are dropped from the phase (in-flight ones are
// answered or fail).
func runOpenLoop(ctx context.Context, senders int, rate float64, batches []batch, send sendFunc) *phase {
	p := &phase{rate: rate, out: make([]outcome, len(batches))}
	var next atomic.Int64
	start := time.Now()
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(batches) {
					return
				}
				due := time.Duration(float64(i) * interval)
				if wait := due - time.Since(start); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
					}
				}
				if ctx.Err() != nil {
					return
				}
				o := outcome{due: due, sent: time.Since(start), records: batches[i].records}
				o.failed = send(ctx, batches[i]) != nil
				o.done = time.Since(start)
				p.out[i] = o
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	// Drop the requests ctx cancelled before they were sent (every sent
	// request has done > 0).
	kept := p.out[:0]
	for _, o := range p.out {
		if o.done > 0 {
			kept = append(kept, o)
		}
	}
	p.out = kept
	return p
}

// quiesce collects the harness's own garbage (the generated inputs of the
// previous phase) right before a timed phase, so that the harness's
// collector does not compete with the daemon, or delay sends, inside it.
func quiesce() { runtime.GC() }

// latenciesMs returns the latencies of the acknowledged requests in ms.
func (p *phase) latenciesMs() []float64 {
	xs := make([]float64, 0, len(p.out))
	for _, o := range p.out {
		if !o.failed {
			xs = append(xs, float64(o.latency())/1e6)
		}
	}
	return xs
}

// failed counts requests that were not fully acknowledged.
func (p *phase) failed() int {
	n := 0
	for _, o := range p.out {
		if o.failed {
			n++
		}
	}
	return n
}

// ackedRecords counts records in acknowledged requests.
func (p *phase) ackedRecords() int {
	n := 0
	for _, o := range p.out {
		if !o.failed {
			n += o.records
		}
	}
	return n
}

// latenessGrowthMs compares the generator's median lateness over the last
// third of the phase with the first third. Below capacity it stays near
// zero however spiky single requests are (a stall delays fewer than half of
// a third's requests); above capacity the backlog, and with it the
// lateness of every request, grows for as long as the phase runs.
func (p *phase) latenessGrowthMs() float64 {
	n := len(p.out) / 3
	if n == 0 {
		return 0
	}
	first := make([]float64, n)
	last := make([]float64, n)
	for i := 0; i < n; i++ {
		first[i] = float64(p.out[i].lateness())
		last[i] = float64(p.out[len(p.out)-1-i].lateness())
	}
	return (median(last) - median(first)) / 1e6
}

// maxLatenessMs is the worst generator lateness of the phase.
func (p *phase) maxLatenessMs() float64 {
	var m time.Duration
	for _, o := range p.out {
		m = max(m, o.lateness())
	}
	return float64(m) / 1e6
}
