package main

import (
	"context"
	"math/rand"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/serve"
)

// feedEvent is one event of a live feed: sent, acked by the primary,
// and later seen on a follower.
type feedEvent struct {
	id, node int
	size     int // the cascade's size once the event is applied
	due      time.Time
	acked    time.Time
	seen     time.Time // when a poll first found it visible; zero if never
	measured bool      // due inside the measured window
}

// eventSource makes a live feed's events. Each grows a Zipf-drawn
// cascade by a node not yet in it, just after its last infection, so
// events grow exactly the cascades a batch client on the same skew
// predicts.
type eventSource struct {
	zipf  *zipfIDs
	rng   *rand.Rand
	n     int
	nodes map[int]map[int]bool
	last  map[int]float64
	size  map[int]int
}

func newEventSource(zipf *zipfIDs, rng *rand.Rand, n int, cs []*cascade.Cascade) *eventSource {
	s := &eventSource{zipf: zipf, rng: rng, n: n, nodes: map[int]map[int]bool{}, last: map[int]float64{}, size: map[int]int{}}
	for _, c := range cs {
		m := map[int]bool{}
		for _, inf := range c.Infections {
			m[inf.Node] = true
		}
		s.nodes[c.ID] = m
		s.last[c.ID] = c.Infections[len(c.Infections)-1].Time
		s.size[c.ID] = c.Size()
	}
	return s
}

// next returns the next event and the cascade's size once it is applied.
func (s *eventSource) next() (serve.Event, int) {
	id := s.zipf.next()
	node := s.rng.Intn(s.n)
	for s.nodes[id][node] {
		node = s.rng.Intn(s.n)
	}
	s.nodes[id][node] = true
	s.last[id] += eventTimeStep
	s.size[id]++
	return serve.Event{Cascade: id, Node: node, Time: s.last[id]}, s.size[id]
}

// feedResult is what a live feed measured.
type feedResult struct {
	measured []feedEvent // acked events sent inside the measured window, in log order
	late     []time.Duration
	unseen   int // measured events never seen within freshTimeout
}

// feed runs a live feed on one goroutine: events at ingestRate on a
// paced schedule, and between sends, every freshPoll, a poll for which
// acked events are visible. Events due within d are measured. After d
// the feed keeps sending, unmeasured, until every measured event is
// visible or freshTimeout has passed: a live feed does not stop, and a
// stopped one would leave the last events waiting on heartbeats.
//
// send sends event i and returns its record with acked set, or false
// if it failed (the caller counts the failure). visible reports
// whether an event is visible. The follower applies the log in order,
// so the visible events are a prefix of those pending: feed probes the
// oldest (usually the only request), then the newest, then
// binary-searches the boundary.
func feed(ctx context.Context, d time.Duration, send func(i int, due time.Time) (feedEvent, bool), visible func(feedEvent) bool) feedResult {
	var pending []*feedEvent // acked, not yet seen
	var measured []*feedEvent
	unseen := 0
	poll := func() {
		if len(pending) == 0 || !visible(*pending[0]) {
			return
		}
		lo, hi := 0, len(pending)-1 // pending[:lo+1] visible; the boundary is <= hi
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if lo == 0 && hi == len(pending)-1 {
				mid = hi
			}
			if visible(*pending[mid]) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		now := time.Now()
		for _, pe := range pending[:lo+1] {
			if pe.seen = now; pe.measured {
				unseen--
			}
		}
		pending = pending[lo+1:]
	}
	lastPoll := time.Now()
	idle := func(next time.Time) {
		for len(pending) > 0 {
			at := lastPoll.Add(freshPoll)
			if !at.Before(next) {
				return
			}
			time.Sleep(time.Until(at))
			lastPoll = time.Now()
			poll()
		}
	}
	start := time.Now()
	nMeasured := 0 // events due inside the window, acked or not
	more := func(_ int, at time.Duration) bool { return at < d || (unseen > 0 && at < d+freshTimeout) }
	late, _ := paced(ctx, ingestRate, start, more, func(i int, due time.Time) error {
		in := due.Sub(start) < d
		if in {
			nMeasured++
		}
		ev, ok := send(i, due)
		if !ok {
			return nil
		}
		ev.due, ev.measured = due, in
		pe := &ev
		pending = append(pending, pe)
		if in {
			measured = append(measured, pe)
			unseen++
		}
		return nil
	}, idle)
	res := feedResult{late: late[:min(nMeasured, len(late))], unseen: unseen}
	for _, pe := range measured {
		res.measured = append(res.measured, *pe)
	}
	return res
}
