package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"viralcast/internal/serve"
)

// Fixed settings of the serving workloads. predictRate is well below
// the single-predict saturation point of a 2-vCPU host (~5k req/s over
// loopback), so latencies are service times plus loopback, not queues.
const (
	predictSeed    = 1   // -seed of `viralcast serve`: predictor training
	predictRate    = 200 // single predicts per second, direct and routed
	batchSize      = 256
	setupRepeats   = 5
	ingestChunk    = 4096 // events per POST when making the fixture live
	hotCacheTTL    = "5s" // the daemon default: predict_hot reads from the cache
	liveCacheTTL   = "1ms"
	warmupRequests = 300
	predictRounds  = 15 // alternating direct / routed / batch rounds
)

func serveFlags(fx *fixture, cacheTTL string, extra ...string) []string {
	return append([]string{"serve", "-model", fx.modelPath, "-cascades", fx.cascadesPath,
		"-seed", fmt.Sprint(predictSeed), "-flush-every", "0", "-cache-ttl", cacheTTL}, extra...)
}

// startReady starts a daemon setupRepeats times, timing exec ->
// /readyz 200 each time, and leaves the last one running. ready
// further qualifies the /readyz body.
func startReady(e *env, name string, args []string, ready func(map[string]any) bool) (*proc, []float64, error) {
	c := newClient()
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		p, err := startDaemon(e.bin, e.dir, name, args...)
		if err != nil {
			return nil, nil, err
		}
		t, err := p.waitReady(c, ready)
		if err != nil {
			p.kill()
			return nil, nil, err
		}
		times = append(times, t.Seconds())
		if i == setupRepeats-1 {
			return p, times, nil
		}
		if _, err := p.stop(); err != nil {
			return nil, nil, err
		}
	}
	panic("unreachable")
}

// makeLive POSTs every fixture event to base so the cascades are live
// in the daemon's store.
func makeLive(c *http.Client, base string, evs []serve.Event) error {
	for lo := 0; lo < len(evs); lo += ingestChunk {
		chunk := evs[lo:min(lo+ingestChunk, len(evs))]
		body, err := json.Marshal(map[string]any{"events": chunk})
		if err != nil {
			return err
		}
		st, b, err := do(c, http.MethodPost, base+"/v1/events", body)
		if err != nil {
			return err
		}
		var rep struct {
			Accepted int `json:"accepted"`
		}
		if st != 200 || json.Unmarshal(b, &rep) != nil || rep.Accepted != len(chunk) {
			return fmt.Errorf("making the fixture live: status %d, %.200s", st, b)
		}
	}
	return nil
}

func readyGeneration(c *http.Client, base string) (uint64, error) {
	st, m, err := getJSON(c, base+"/readyz")
	if err != nil {
		return 0, err
	}
	g, ok := m["generation"].(float64)
	if st != 200 || !ok {
		return 0, fmt.Errorf("/readyz status %d has no generation", st)
	}
	return uint64(g), nil
}

// runPredictHot: one unsharded daemon, no WAL, no flush, with the
// fixture's cascades live. Three phases of seconds/3 each: single
// predicts direct (open loop), the same through a one-shard router
// (open loop), and batch=256 (closed loop, one client).
func runPredictHot(e *env) (headline, error) {
	var h headline
	daemon, setups, err := startReady(e, "daemon", serveFlags(e.fx, hotCacheTTL), nil)
	if err != nil {
		return h, err
	}
	defer daemon.kill()
	c := newClient()
	if err := makeLive(c, daemon.base, events(e.fx.cascades)); err != nil {
		return h, err
	}
	o, err := newOracle(e.fx.modelPath, e.fx.cascadesPath, predictSeed, e.fx.cascades)
	if err != nil {
		return h, err
	}
	if o.gen, err = readyGeneration(c, daemon.base); err != nil {
		return h, err
	}
	o.fixed = true // no WAL, no flush, no events after makeLive
	router, err := startDaemon(e.bin, e.dir, "router", "route", "-shards", daemon.base, "-probe-every", "500ms")
	if err != nil {
		return h, err
	}
	defer router.kill()
	if _, err := router.waitReady(c, func(m map[string]any) bool { return m["status"] == "ready" }); err != nil {
		return h, err
	}

	rng := rand.New(rand.NewSource(int64(e.seed)))
	zipf := newZipfIDs(rng, e.fx.cascades)
	clients := make([]*http.Client, e.nproc)
	for i := range clients {
		clients[i] = newClient()
	}
	single := func(base, span string) func(w, i int, id int) (time.Time, error) {
		return func(w, i, id int) (time.Time, error) {
			_, end := e.tr.begin(span, 0, uint64(i+1))
			st, b, err := do(clients[w], http.MethodGet, fmt.Sprintf("%s/v1/cascades/%d/predict", base, id), nil)
			fin := time.Now()
			end()
			if err == nil {
				err = o.checkSingle(id, st, b)
			}
			if err != nil {
				e.fail(1, err)
			}
			return fin, err
		}
	}
	// Warm both paths (connections, page cache, the daemon's pools)
	// before anything is timed.
	for i, id := range zipf.draw(warmupRequests) {
		single(daemon.base, "warmup")(0, i, id)
		single(router.base, "warmup")(0, i, id)
	}
	e.attempt(2 * warmupRequests)

	// The three phases alternate in rounds, and each headline number
	// is the median over rounds: a noisy neighbour's burst on a shared
	// host then spoils one round's figure instead of the run's.
	phase := time.Duration(e.seconds) * time.Second / (3 * predictRounds)
	var lates, direct, routed, batchLat []float64
	var directP50, routedP50, batchRates []float64
	openPhase := func(base, span string) []float64 {
		ids := zipf.draw(int(predictRate * phase.Seconds()))
		send := single(base, span)
		r := openLoop(e.ctx, predictRate, phase, e.nproc, func(w, i int) (time.Time, error) { return send(w, i, ids[i]) })
		e.attempt(len(r.Late))
		lates = append(lates, durations(r.Late, time.Microsecond)...)
		return durations(r.Latency, time.Microsecond)
	}
	hits0, miss0, err := cacheCounters(c, daemon.base)
	if err != nil {
		return h, err
	}
	for round := 0; round < predictRounds; round++ {
		d := openPhase(daemon.base, "client.predict")
		direct, directP50 = append(direct, d...), append(directP50, median(d))
		r := openPhase(router.base, "client.routed_predict")
		routed, routedP50 = append(routed, r...), append(routedP50, median(r))
		batch := closedLoop(e.ctx, phase, func(i int) (time.Time, error) {
			ids := zipf.draw(batchSize)
			body := batchRequest(ids)
			_, end := e.tr.begin("client.predict_batch", 0, uint64(i+1))
			st, b, err := do(c, http.MethodPost, daemon.base+"/v1/predict:batch", body)
			fin := time.Now()
			end()
			e.attempt(batchSize)
			if err == nil {
				_, err = o.checkBatch(ids, st, b)
			}
			if err != nil {
				e.fail(batchSize, err)
			}
			return fin, err
		})
		batchLat = append(batchLat, durations(batch.Latency, time.Millisecond)...)
		batchRates = append(batchRates, float64(len(batch.Latency)*batchSize)/sum(batch.Latency).Seconds())
	}
	hits1, miss1, err := cacheCounters(c, daemon.base)
	if err != nil {
		return h, err
	}
	note := fmt.Sprintf("open loop %d/s from due time; median of %d round medians", predictRate, predictRounds)
	for _, p := range []struct {
		name    string
		samples []float64
		p50s    []float64
	}{{"predict", direct, directP50}, {"routed_predict", routed, routedP50}} {
		d := summarize(p.samples)
		e.detail(p.name+"_p50_us", median(p.p50s), "us", d.N, 0.5, note)
		e.detail(p.name+"_p99_us", d.Tail, "us", d.N, d.TailQ, "pooled over rounds")
	}
	bd := summarize(batchLat)
	perSec := median(batchRates)
	e.detail("batch_cascades_per_s", perSec, "1/s", bd.N, 0, fmt.Sprintf("closed loop, 1 client, batch=256, per second waiting; median of %d rounds", predictRounds))
	e.detail("batch_p99_ms", bd.Tail, "ms", bd.N, bd.TailQ, "pooled over rounds")
	e.cacheRatio(hits1-hits0, miss1-miss0)
	o.report(e, "answers compared bit-for-bit with the in-process oracle")

	rssR, errR := router.stop()
	rssD, errD := daemon.stop()
	if errR != nil || errD != nil {
		return h, fmt.Errorf("stopping: %v %v", errR, errD)
	}
	h = headline{setup: median(setups), p50: median(directP50) / 1000, rssMB: rssD + rssR}
	e.detail("setup_s", h.setup, "s", len(setups), 0.5, "daemon exec -> /readyz 200")
	e.detail("peak_rss_mb", h.rssMB, "MB", 2, 0, "daemon + router VmHWM")
	e.detail("error_rate", ratio(e.res.Failed, e.res.Attempted), "ratio", e.res.Attempted, 0, "")
	e.res.Inputs["predict_rate_per_s"] = predictRate
	e.res.Inputs["batch_size"] = batchSize
	e.res.Inputs["daemon_flags"] = "serve -flush-every 0 -cache-ttl " + hotCacheTTL + fmt.Sprintf(" -seed %d", predictSeed)
	e.res.Inputs["router_flags"] = "route -probe-every 500ms"
	e.res.Inputs["workers"] = e.nproc
	e.lateness(lates)
	return h, nil
}

// cacheCounters reads the daemon's cache_hits and cache_misses.
func cacheCounters(c *http.Client, base string) (hits, misses float64, err error) {
	if hits, err = metricCounter(c, base, "cache_hits"); err != nil {
		return
	}
	misses, err = metricCounter(c, base, "cache_misses")
	return
}

// cacheRatio records the batch phase's hit ratio with its base.
func (e *env) cacheRatio(hits, misses float64) {
	n := int(hits + misses)
	r := 0.0
	if n > 0 {
		r = hits / (hits + misses)
	}
	e.res.cacheHitRatio, e.res.cacheBase = r, n
	e.detail("cache_hit_ratio", r, "ratio", n, 0, fmt.Sprintf("%d hits of %d batch items", int(hits), n))
}

// lateness records how late the open-loop generator sent requests.
func (e *env) lateness(us []float64) {
	if len(us) == 0 {
		return
	}
	d := summarize(us)
	e.res.lateP99 = max(e.res.lateP99, d.Tail)
	e.detail("generator_late_p99_us", d.Tail, "us", d.N, d.TailQ, "send time minus due time")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
