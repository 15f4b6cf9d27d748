package main

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// loopResult holds one load loop's timings. Latency is measured from
// the request's due time (open loop) or its send time (closed loop);
// Late is how long after its due time each request was actually sent.
type loopResult struct {
	Latency []time.Duration
	Late    []time.Duration
	Failed  int
}

// openLoop sends count requests on a fixed schedule, request i due at
// start + i/rate, whatever the system's state: independent users. The
// schedule never waits for replies; requests whose worker is still busy
// queue, and that queueing shows in their latency because it is timed
// from the due time. workers bounds the requests in flight (and, with
// one keep-alive client each, the connections). do returns when its
// reply was fully read, so checking the reply afterwards is not timed.
func openLoop(ctx context.Context, rate float64, d time.Duration, workers int, do func(worker, i int) (time.Time, error)) loopResult {
	count := int(rate * d.Seconds())
	type job struct {
		i   int
		due time.Time
	}
	// Sized to the whole schedule so the generator never blocks on a
	// busy worker: a blocked generator would hide the queueing delay.
	jobs := make(chan job, count)
	res := loopResult{Latency: make([]time.Duration, count), Late: make([]time.Duration, count)}
	done := make([]bool, count)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now()
				fin, err := do(w, j.i)
				mu.Lock()
				res.Late[j.i] = sent.Sub(j.due)
				res.Latency[j.i] = fin.Sub(j.due)
				if err != nil {
					res.Failed++
				} else {
					done[j.i] = true
				}
				mu.Unlock()
			}
		}(w)
	}
	// The generator: a paced schedule that hands each request to the
	// workers at its due time. If ctx ends early, only the requests
	// already handed out count.
	handed, _ := paced(ctx, rate, start, func(i int, _ time.Duration) bool { return i < count },
		func(i int, due time.Time) error { jobs <- job{i: i, due: due}; return nil }, nil)
	count = len(handed)
	close(jobs)
	wg.Wait()
	// Failed requests count against the attempted total, not the
	// latency sample: a refused request has no latency to report.
	lat, late := res.Latency[:0], res.Late[:0]
	for i := 0; i < count; i++ {
		if done[i] {
			lat = append(lat, res.Latency[i])
		}
		late = append(late, res.Late[i])
	}
	res.Latency, res.Late = lat, late
	return res
}

// closedLoop runs one client that sends its next request only after
// the previous one completes, for duration d. do returns when its reply
// was fully read, as for openLoop.
func closedLoop(ctx context.Context, d time.Duration, do func(i int) (time.Time, error)) loopResult {
	var res loopResult
	start := time.Now()
	for i := 0; time.Since(start) < d && ctx.Err() == nil; i++ {
		t0 := time.Now()
		fin, err := do(i)
		if err != nil {
			res.Failed++
			continue
		}
		res.Latency = append(res.Latency, fin.Sub(t0))
	}
	return res
}

// paced runs one fixed schedule: call i is due at start + i/rate, and
// call(i, due) runs at its due time, or as soon as the previous call and
// idle let it. more(i, at) says whether call i, due at offset at, is
// made at all. Between calls, idle(next), when given, may do work that
// should not delay the call due at next (say, polling); whatever it
// overruns shows as lateness. paced returns how late each call started
// and stops at call's first error or when ctx ends.
func paced(ctx context.Context, rate float64, start time.Time, more func(i int, at time.Duration) bool,
	call func(i int, due time.Time) error, idle func(next time.Time)) ([]time.Duration, error) {
	interval := time.Duration(float64(time.Second) / rate)
	var late []time.Duration
	for i := 0; more(i, time.Duration(i)*interval); i++ {
		due := start.Add(time.Duration(i) * interval)
		if idle != nil {
			idle(due)
		}
		if err := waitUntil(ctx, due); err != nil {
			return late, err
		}
		late = append(late, time.Since(due))
		if err := call(i, due); err != nil {
			return late, err
		}
	}
	return late, nil
}

// sum adds up durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// timerSlack covers the Go runtime's timer granularity on Linux: its
// poller sleeps in whole milliseconds, so a timer can fire up to ~1ms
// late. waitUntil sleeps until timerSlack before due and spins (yielding)
// the rest, which keeps a fixed-rate schedule within microseconds.
const timerSlack = 1500 * time.Microsecond

// waitUntil returns at due, or early with ctx's error.
func waitUntil(ctx context.Context, due time.Time) error {
	if d := time.Until(due) - timerSlack; d > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	return ctx.Err()
}
