package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Fixed settings of ingest_live. The event rate is deliberately low:
// a live news feed trickles, and at a low rate the replication stream's
// delivery delay is what a reader of the follower sees. It must not be
// raised to make that delay look smaller.
const (
	ingestRate    = 20                   // events per second, open loop
	flushEvery    = 5 * time.Second      // POST /v1/flush cadence
	freshPoll     = 5 * time.Millisecond // follower poll interval while events are pending
	freshTimeout  = 60 * time.Second     // an event not visible by then has failed
	eventTimeStep = 1e-3                 // event time after the cascade's last infection
	batchWindow   = time.Second          // batch throughput sample length
)

// runIngestLive: a WAL-backed primary with one -follow follower, the
// fixture's cascades live and already folded into the model by one
// flush. For seconds seconds one goroutine sends single events on a
// fixed schedule, each growing a cascade the batch client predicts,
// and polls the follower between sends; another runs batch=256 in a
// closed loop and POSTs /v1/flush every flushEvery.
func runIngestLive(e *env) (headline, error) {
	var h headline
	walP, walF := filepath.Join(e.dir, "wal-primary"), filepath.Join(e.dir, "wal-follower")
	for _, d := range []string{walP, walF} {
		if err := os.RemoveAll(d); err != nil {
			return h, err
		}
	}
	c := newClient()
	primaryArgs := serveFlags(e.fx, liveCacheTTL, "-wal-dir", walP)

	// Prepare the WAL once: ingest the fixture and drain.
	p, err := startDaemon(e.bin, e.dir, "primary", primaryArgs...)
	if err != nil {
		return h, err
	}
	if _, err := p.waitReady(c, nil); err != nil {
		p.kill()
		return h, err
	}
	if err := makeLive(c, p.base, events(e.fx.cascades)); err != nil {
		p.kill()
		return h, err
	}
	if _, err := p.stop(); err != nil {
		return h, err
	}

	// Set-up: the primary replays its WAL, then a fresh follower
	// bootstraps from it and catches up. Timed setupRepeats times.
	var setups []float64
	var primary, follower *proc
	for i := 0; i < setupRepeats; i++ {
		if err := os.RemoveAll(walF); err != nil {
			return h, err
		}
		if primary, err = startDaemon(e.bin, e.dir, "primary", primaryArgs...); err != nil {
			return h, err
		}
		tp, err := primary.waitReady(c, nil)
		if err != nil {
			primary.kill()
			return h, err
		}
		if follower, err = startDaemon(e.bin, e.dir, "follower", serveFlags(e.fx, liveCacheTTL, "-wal-dir", walF, "-follow", primary.base)...); err != nil {
			primary.kill()
			return h, err
		}
		tf, err := follower.waitReady(c, followerReady)
		if err != nil {
			follower.kill()
			primary.kill()
			return h, err
		}
		setups = append(setups, tp.Seconds()+tf.Seconds())
		if i < setupRepeats-1 {
			_, err1 := follower.stop()
			_, err2 := primary.stop()
			if err1 != nil || err2 != nil {
				return h, fmt.Errorf("stopping: %v %v", err1, err2)
			}
		}
	}
	defer primary.kill()
	defer follower.kill()

	// The replayed cascades are all dirty: one untimed flush folds them
	// in, so the timed flushes below fold only what the feed grew. The
	// oracle applies the same refinement.
	if st, b, err := do(c, http.MethodPost, primary.base+"/v1/flush", nil); err != nil || st != 200 {
		return h, fmt.Errorf("initial flush: status %d %.200s: %v", st, b, err)
	}
	o, err := newOracle(e.fx.modelPath, e.fx.cascadesPath, predictSeed, e.fx.cascades)
	if err != nil {
		return h, err
	}
	if err := o.flush(e.fx.cascades); err != nil {
		return h, err
	}
	if o.gen, err = readyGeneration(c, primary.base); err != nil {
		return h, err
	}
	if _, err := follower.waitReady(c, followerReady); err != nil {
		return h, err
	}
	// The batch client and the feed draw from one skew, so events grow
	// exactly the cascades being predicted.
	batchZipf := newZipfIDs(rand.New(rand.NewSource(int64(e.seed))), e.fx.cascades)
	src := newEventSource(newZipfIDs(rand.New(rand.NewSource(int64(e.seed))), e.fx.cascades),
		rand.New(rand.NewSource(int64(e.seed))), e.fx.n, e.fx.cascades)

	hits0, miss0, err := cacheCounters(c, primary.base)
	if err != nil {
		return h, err
	}
	d := time.Duration(e.seconds) * time.Second
	var wg sync.WaitGroup
	var batches []time.Duration
	var flushes, rates []float64
	wg.Add(1)
	go func() { // the batch client: closed loop, one connection
		defer wg.Done()
		bc := newClient()
		start := time.Now()
		nextFlush := start.Add(flushEvery)
		// Throughput is taken per batchWindow and the run reports the
		// median window, which a neighbour's burst on a shared host
		// cannot move the way it moves a whole-run mean.
		winStart, winFirst, winBusy := start, 0, time.Duration(0)
		for i := 0; time.Since(start) < d; i++ {
			if time.Now().After(nextFlush) {
				_, end := e.tr.begin("client.flush", 0, uint64(i+1))
				t0 := time.Now()
				st, b, err := do(bc, http.MethodPost, primary.base+"/v1/flush", nil)
				flushes = append(flushes, time.Since(t0).Seconds())
				end()
				nextFlush = time.Now().Add(flushEvery)
				if err == nil && st != 200 {
					err = fmt.Errorf("flush: status %d: %.200s", st, b)
				}
				e.attempt(1)
				if err != nil {
					e.fail(1, err)
				}
				continue
			}
			ids := batchZipf.draw(batchSize)
			body := batchRequest(ids)
			_, end := e.tr.begin("client.predict_batch", 0, uint64(i+1))
			t0 := time.Now()
			st, b, err := do(bc, http.MethodPost, primary.base+"/v1/predict:batch", body)
			took := time.Since(t0)
			end()
			e.attempt(batchSize)
			if err == nil {
				_, err = o.checkBatch(ids, st, b)
			}
			if err != nil {
				e.fail(batchSize, err)
				continue
			}
			batches = append(batches, took)
			if winBusy += took; time.Since(winStart) >= batchWindow {
				rates = append(rates, float64((len(batches)-winFirst)*batchSize)/winBusy.Seconds())
				winStart, winFirst, winBusy = time.Now(), len(batches), 0
			}
		}
	}()

	// The writer: the live feed on one goroutine, so follower polls
	// and sends never overlap (one request in flight).
	pc, fc := newClient(), newClient()
	send := func(i int, _ time.Time) (feedEvent, bool) {
		ev, size := src.next()
		o.grow(ev)
		body, _ := json.Marshal(ev) // a struct of numbers always marshals
		_, end := e.tr.begin("client.event", 0, uint64(i+1))
		st, b, err := do(pc, http.MethodPost, primary.base+"/v1/events", body)
		end()
		acked := time.Now()
		e.attempt(1)
		var rep struct {
			Accepted int `json:"accepted"`
		}
		if err == nil && (st != 200 || json.Unmarshal(b, &rep) != nil || rep.Accepted != 1) {
			err = fmt.Errorf("event %d: status %d: %.200s", i, st, b)
		}
		if err != nil {
			e.fail(1, err)
			return feedEvent{}, false
		}
		return feedEvent{id: ev.Cascade, node: ev.Node, size: size, acked: acked}, true
	}
	visible := func(fe feedEvent) bool {
		st, m, err := getJSON(fc, fmt.Sprintf("%s/v1/cascades/%d", follower.base, fe.id))
		if err == nil && st == http.StatusServiceUnavailable {
			return false // re-bootstrapping after a compaction: not visible yet
		}
		size, ok := m["size"].(float64)
		if err == nil && (st != 200 || !ok) {
			err = fmt.Errorf("follower cascade %d: status %d, size %v", fe.id, st, m["size"])
		}
		if err != nil {
			e.attempt(1)
			e.fail(1, err)
			return false
		}
		return int(size) >= fe.size
	}
	fr := feed(e.ctx, d, send, visible)
	wg.Wait()
	if fr.unseen > 0 {
		e.fail(fr.unseen, fmt.Errorf("%d acked events never became visible on the follower within %v", fr.unseen, freshTimeout))
	}
	var acks, fresh []float64
	for _, fe := range fr.measured {
		acks = append(acks, float64(fe.acked.Sub(fe.due))/float64(time.Microsecond))
		if !fe.seen.IsZero() {
			fresh = append(fresh, float64(fe.seen.Sub(fe.acked))/float64(time.Millisecond))
		}
	}
	hits1, miss1, err := cacheCounters(c, primary.base)
	if err != nil {
		return h, err
	}

	ad := summarize(acks)
	fd := summarize(fresh)
	bd := summarize(durations(batches, time.Millisecond))
	perSec := median(rates)
	e.detail("ingest_ack_p50_us", ad.P50, "us", ad.N, 0.5, fmt.Sprintf("open loop %d/s, durable ack from due time", ingestRate))
	e.detail("ingest_ack_p99_us", ad.Tail, "us", ad.N, ad.TailQ, "")
	e.detail("freshness_p50_ms", fd.P50, "ms", fd.N, 0.5, "primary ack -> visible on the follower")
	e.detail("freshness_p99_ms", fd.Tail, "ms", fd.N, fd.TailQ, "")
	e.detail("flush_s", median(flushes), "s", len(flushes), 0.5, fmt.Sprintf("POST /v1/flush every %v", flushEvery))
	e.detail("batch_cascades_per_s", perSec, "1/s", len(batches), 0,
		fmt.Sprintf("closed loop, 1 client, batch=256, per second waiting; median of %d %v windows", len(rates), batchWindow))
	e.detail("batch_p99_ms", bd.Tail, "ms", bd.N, bd.TailQ, "")
	e.cacheRatio(hits1-hits0, miss1-miss0)
	o.report(e, fmt.Sprintf("bit-for-bit vs the oracle; %d later-generation answers checked for schema and prefix size", o.skipped))

	rssF, errF := follower.stop()
	rssP, errP := primary.stop()
	if errF != nil || errP != nil {
		return h, fmt.Errorf("stopping: %v %v", errF, errP)
	}
	h = headline{setup: median(setups), p50: fd.P50, rssMB: rssP + rssF}
	e.detail("setup_s", h.setup, "s", len(setups), 0.5, "primary exec -> /readyz (WAL replay) + follower exec -> /readyz ready (bootstrap)")
	e.detail("peak_rss_mb", h.rssMB, "MB", 2, 0, "primary + follower VmHWM")
	e.detail("error_rate", ratio(e.res.Failed, e.res.Attempted), "ratio", e.res.Attempted, 0, "")
	e.res.Inputs["ingest_rate_per_s"] = ingestRate
	e.res.Inputs["flush_every"] = flushEvery.String()
	e.res.Inputs["batch_size"] = batchSize
	e.res.Inputs["daemon_flags"] = fmt.Sprintf("serve -flush-every 0 -cache-ttl %s -seed %d -wal-dir (follower: -follow)", liveCacheTTL, predictSeed)
	e.lateness(durations(fr.late, time.Microsecond))
	return h, nil
}

// followerReady accepts a follower's /readyz once it serves reads: its
// bootstrap snapshot is applied and replication is streaming.
func followerReady(m map[string]any) bool { return m["status"] == "ready" && m["role"] == "follower" }
