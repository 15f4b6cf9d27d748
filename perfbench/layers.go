package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/cooccur"
	"viralcast/internal/core"
	"viralcast/internal/features"
	"viralcast/internal/graph"
	"viralcast/internal/infer"
	"viralcast/internal/router"
	"viralcast/internal/serve"
	"viralcast/internal/slpa"
	"viralcast/internal/wal"
	"viralcast/internal/xrand"
)

// Sample sizes of the in-process layer suite.
const (
	layerCalls    = 2000 // single-item calls per layer
	layerBatches  = 200  // batch=256 calls per batch layer
	layerRepeats  = 3    // repeats of the slow calls (update, retrain, compact)
	walSeconds    = 5    // paced WAL appends at the ingest rate
	replSeconds   = 6    // paced events through an in-process primary/follower
	featureSelect = "diverA,normA,maxA"
)

// layers accumulates per-layer values in perLayer's order.
type layers map[string]layerValue

func (l layers) set(name string, v float64, n int) {
	for _, s := range perLayer {
		if s.Name == name {
			l[name] = layerValue{Name: name, Value: v, Unit: s.Unit, N: n, Moves: s.Moves}
			return
		}
	}
	panic("perfbench: unknown layer metric " + name)
}

// timed runs f inside a span and returns f's own duration; the span's
// bookkeeping stays outside the timed interval.
func timed(tr *tracer, name string, parent, req uint64, f func()) time.Duration {
	_, end := tr.begin(name, parent, req)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	end()
	return d
}

func p50(ds []time.Duration, unit time.Duration) float64 {
	return median(durations(ds, unit))
}

// runLayers is the traced run's in-process half: it times calls into
// each module's public functions on the run's fixture, with spans
// around every call, and merges the live run's cache ratio and
// generator lateness.
func runLayers(e *env, overheadPct float64) ([]layerValue, error) {
	tr, cs, l := e.tr, e.fx.cascades, layers{}
	load, err := serve.FileLoader(serve.FileLoaderConfig{ModelPath: e.fx.modelPath, TrainPath: e.fx.cascadesPath,
		TopFraction: 0.2, Train: core.TrainConfig{Seed: predictSeed}})
	if err != nil {
		return nil, err
	}
	lm, err := load()
	if err != nil {
		return nil, err
	}
	// In-process servers share one loaded model; none of them flushes,
	// so none mutates it.
	shared := func() (*serve.LoadedModel, error) { return lm, nil }
	pred, early := lm.Pred, lm.Pred.EarlyCutoff()
	byID := map[int]*cascade.Cascade{}
	for _, c := range cs {
		byID[c.ID] = c
	}
	zipf := newZipfIDs(rand.New(rand.NewSource(int64(e.seed))), cs)
	ids := zipf.draw(layerCalls)
	evs := events(cs)

	// Store: append every fixture event, then snapshot Zipf ids.
	st := serve.NewStore()
	var appends, snaps, extracts, predicts []time.Duration
	for i, ev := range evs {
		appends = append(appends, timed(tr, "serve.store_append", 0, uint64(i+1), func() {
			_, err = st.Append(ev, e.fx.n)
		}))
		if err != nil {
			return nil, err
		}
	}
	l.set("serve.store_append_ns", p50(appends, time.Nanosecond), len(appends))
	// The request path decomposed: snapshot, then the predictor (which
	// itself cuts the prefix and extracts features, timed separately).
	for i, id := range ids {
		req := uint64(i + 1)
		parent, end := tr.begin("path.predict", 0, req)
		var c *cascade.Cascade
		snaps = append(snaps, timed(tr, "serve.store_snapshot", parent, req, func() { c, _ = st.Snapshot(id) }))
		pre := c.Prefix(early)
		extracts = append(extracts, timed(tr, "features.extract", parent, req, func() {
			_, err = features.Extract(lm.Sys.Embeddings, pre)
		}))
		predicts = append(predicts, timed(tr, "core.predict_viral", parent, req, func() { _, _, err = pred.PredictViral(c) }))
		end()
		if err != nil {
			return nil, err
		}
	}
	l.set("serve.store_snapshot_ns", p50(snaps, time.Nanosecond), len(snaps))
	l.set("features.extract_ns", p50(extracts, time.Nanosecond), len(extracts))
	l.set("core.predict_viral_ns", p50(predicts, time.Nanosecond), len(predicts))

	// Column-wise batch kernels on Zipf batches of 256.
	names := strings.Split(featureSelect, ",")
	var xb, pb []time.Duration
	out := make([]core.BatchResult, batchSize)
	errs := make([]error, batchSize)
	for b := 0; b < layerBatches; b++ {
		batch := make([]*cascade.Cascade, batchSize)
		earlies := make([]*cascade.Cascade, batchSize)
		for i, id := range zipf.draw(batchSize) {
			batch[i] = byID[id]
			earlies[i] = byID[id].Prefix(early)
		}
		blk := features.GetBlock(batchSize, len(names))
		xb = append(xb, timed(tr, "features.extract_batch", 0, uint64(b+1), func() {
			features.ExtractBatch(lm.Sys.Embeddings, earlies, names, blk, errs)
		}))
		features.PutBlock(blk)
		pb = append(pb, timed(tr, "core.predict_viral_batch", 0, uint64(b+1), func() { pred.PredictViralBatch(batch, out) }))
	}
	l.set("features.extract_batch_ns_per_item", p50(xb, time.Nanosecond)/batchSize, len(xb))
	l.set("core.predict_viral_batch_ns_per_item", p50(pb, time.Nanosecond)/batchSize, len(pb))

	// Handlers without the network: ServeHTTP on a recorder.
	srv, err := serve.New(serve.Config{Loader: shared})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	missSrv, err := serve.New(serve.Config{Loader: shared, CacheTTL: time.Nanosecond})
	if err != nil {
		return nil, err
	}
	defer missSrv.Close()
	for _, s := range []*serve.Server{srv, missSrv} {
		if err := liveInProcess(s.Handler(), evs); err != nil {
			return nil, err
		}
	}
	var handler []time.Duration
	for i, id := range ids {
		d, code := serveTimed(tr, srv.Handler(), "serve.handler_predict", uint64(i+1), http.MethodGet,
			fmt.Sprintf("/v1/cascades/%d/predict", id), nil)
		if code != 200 {
			return nil, fmt.Errorf("in-process predict %d: status %d", id, code)
		}
		handler = append(handler, d)
	}
	handlerUS := p50(handler, time.Microsecond)
	l.set("serve.handler_predict_us", handlerUS, len(handler))
	hot := batchRequest(zipf.draw(batchSize))
	var hit, miss []time.Duration
	for b := 0; b <= layerBatches; b++ {
		d, code := serveTimed(tr, srv.Handler(), "serve.handler_predict_batch_hit", uint64(b+1), http.MethodPost, "/v1/predict:batch", hot)
		if code != 200 {
			return nil, fmt.Errorf("in-process batch: status %d", code)
		}
		if b > 0 { // the first pass fills the cache
			hit = append(hit, d)
		}
		body := batchRequest(zipf.draw(batchSize))
		d, code = serveTimed(tr, missSrv.Handler(), "serve.handler_predict_batch_miss", uint64(b+1), http.MethodPost, "/v1/predict:batch", body)
		if code != 200 {
			return nil, fmt.Errorf("in-process batch: status %d", code)
		}
		miss = append(miss, d)
	}
	l.set("serve.handler_predict_batch_hit_us", p50(hit, time.Microsecond), len(hit))
	l.set("serve.handler_predict_batch_miss_us", p50(miss, time.Microsecond), len(miss))

	// Router hop: router.New over the in-process daemon behind a
	// loopback listener, driven through the router's handler.
	shard := httptest.NewServer(srv.Handler())
	defer shard.Close()
	rt, err := router.New(router.Config{Shards: []router.Shard{{Primary: shard.URL}}})
	if err != nil {
		return nil, err
	}
	var routed []time.Duration
	for i, id := range ids {
		d, code := serveTimed(tr, rt.Handler(), "router.predict", uint64(i+1), http.MethodGet,
			fmt.Sprintf("/v1/cascades/%d/predict", id), nil)
		if code != 200 {
			return nil, fmt.Errorf("in-process routed predict %d: status %d", id, code)
		}
		routed = append(routed, d)
	}
	l.set("router.hop_us", p50(routed, time.Microsecond)-handlerUS, len(routed))

	if err := walLayers(e, l, evs); err != nil {
		return nil, err
	}
	if err := replLayers(e, l, shared, evs, zipf); err != nil {
		return nil, err
	}

	// Flush work: the cascades one flush period of the live feed grows.
	grown := map[int]bool{}
	var flushed []*cascade.Cascade
	for _, id := range zipf.draw(int(ingestRate * flushEvery.Seconds())) {
		if !grown[id] && byID[id].Size() >= 2 {
			grown[id] = true
			flushed = append(flushed, byID[id])
		}
	}
	var updates, retrains []time.Duration
	for r := 0; r < layerRepeats; r++ {
		next := lm.Sys.Fork()
		updates = append(updates, timed(tr, "core.update", 0, uint64(r+1), func() { err = next.Update(flushed) }))
		if err != nil {
			return nil, err
		}
		retrains = append(retrains, timed(tr, "core.train_predictor", 0, uint64(r+1), func() { _, err = lm.Retrain(next) }))
		if err != nil {
			return nil, err
		}
	}
	l.set("core.update_ms", p50(updates, time.Millisecond), len(updates))
	l.set("core.train_predictor_ms", p50(retrains, time.Millisecond), len(retrains))

	if err := trainLayers(e, l); err != nil {
		return nil, err
	}
	l.set("serve.cache_hit_ratio", e.res.cacheHitRatio, e.res.cacheBase)
	l.set("bench.generator_late_p99_us", e.res.lateP99, 0)
	l.set("bench.trace_overhead_pct", overheadPct, 0)

	res := make([]layerValue, 0, len(perLayer))
	for _, s := range perLayer {
		v, ok := l[s.Name]
		if !ok {
			return nil, fmt.Errorf("layer metric %s was not measured", s.Name)
		}
		res = append(res, v)
	}
	return res, nil
}

// serveTimed sends one request straight into h and times ServeHTTP.
func serveTimed(tr *tracer, h http.Handler, span string, req uint64, method, path string, body []byte) (time.Duration, int) {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	d := timed(tr, span, 0, req, func() { h.ServeHTTP(w, r) })
	return d, w.Code
}

// liveInProcess makes the fixture live in an in-process daemon.
func liveInProcess(h http.Handler, evs []serve.Event) error {
	for lo := 0; lo < len(evs); lo += ingestChunk {
		body, err := json.Marshal(map[string]any{"events": evs[lo:min(lo+ingestChunk, len(evs))]})
		if err != nil {
			return err
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(body)))
		if w.Code != 200 {
			return fmt.Errorf("in-process ingest: status %d: %.200s", w.Code, w.Body.String())
		}
	}
	return nil
}

// walLayers: wal.Open and Log.Append on a scratch directory at the
// ingest_live event rate, then Compact to the whole fixture.
func walLayers(e *env, l layers, evs []serve.Event) error {
	lg, err := wal.Open(filepath.Join(e.dir, "wal-layer"), wal.Options{}, nil)
	if err != nil {
		return err
	}
	defer lg.Close()
	before := lg.Stats()
	var appends []time.Duration
	late, err := paced(context.Background(), ingestRate, time.Now(),
		func(_ int, at time.Duration) bool { return at < walSeconds*time.Second }, func(i int, _ time.Time) error {
			ev := evs[i%len(evs)]
			var aerr error
			appends = append(appends, timed(e.tr, "wal.append", 0, uint64(i+1), func() {
				aerr = lg.Append(wal.Event{Cascade: ev.Cascade, Node: ev.Node, Time: ev.Time})
			}))
			return aerr
		}, nil)
	if err != nil {
		return err
	}
	e.res.lateP99 = max(e.res.lateP99, summarize(durations(late, time.Microsecond)).Tail)
	after := lg.Stats()
	d := summarize(durations(appends, time.Microsecond))
	l.set("wal.append_p50_us", d.P50, d.N)
	l.set("wal.append_p99_us", d.Tail, d.N)
	l.set("wal.events_per_fsync", float64(after.Appends-before.Appends)/float64(max(1, after.Fsyncs-before.Fsyncs)), int(after.Appends-before.Appends))
	snapshot := make([]wal.Event, len(evs))
	for i, ev := range evs {
		snapshot[i] = wal.Event{Cascade: ev.Cascade, Node: ev.Node, Time: ev.Time}
	}
	var compacts []time.Duration
	for r := 0; r < layerRepeats; r++ {
		compacts = append(compacts, timed(e.tr, "wal.compact", 0, uint64(r+1), func() {
			_, err = lg.Compact(func() []wal.Event { return snapshot })
		}))
		if err != nil {
			return err
		}
	}
	l.set("wal.compact_ms", p50(compacts, time.Millisecond), len(compacts))
	return nil
}

// replLayers runs an in-process WAL primary and follower over a
// loopback listener, runs ingest_live's feed through the primary's
// handler, and reads the primary's replication stream with the
// benchmark's own reader. Delivery is stream bytes minus ack;
// follower apply is visible-on-follower minus delivery.
func replLayers(e *env, l layers, shared serve.Loader, evs []serve.Event, zipf *zipfIDs) error {
	primary, err := serve.New(serve.Config{Loader: shared, WALDir: filepath.Join(e.dir, "repl-primary")})
	if err != nil {
		return err
	}
	defer primary.Close()
	if err := liveInProcess(primary.Handler(), evs); err != nil {
		return err
	}
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()
	follower, err := serve.New(serve.Config{Loader: shared, WALDir: filepath.Join(e.dir, "repl-follower"),
		FollowURL: ts.URL, ReplBackoffMin: time.Millisecond, ReplBackoffMax: 20 * time.Millisecond})
	if err != nil {
		return err
	}
	defer follower.Close()
	fget := func(path string) (int, map[string]any) {
		w := httptest.NewRecorder()
		follower.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		var m map[string]any
		_ = json.Unmarshal(w.Body.Bytes(), &m) // a non-JSON body leaves m nil: not ready
		return w.Code, m
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if code, m := fget("/readyz"); code == 200 && m["replication"] == "current" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("in-process follower never caught up")
		}
	}

	// The tap: the primary's stream from the start of its active
	// segment, timestamping each frame as its bytes arrive.
	segs, err := wal.ListSegments(filepath.Join(e.dir, "repl-primary"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("repl tap: no WAL segments: %v", err)
	}
	seq := segs[len(segs)-1].Seq
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/repl/stream?seg=%d&off=%d&fp=%08x", ts.URL, seq, wal.SegmentHeaderLen, wal.ChainSeed(seq)), nil)
	if err != nil {
		return err
	}
	rep, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer rep.Body.Close()
	if rep.StatusCode != 200 {
		return fmt.Errorf("repl tap: status %d", rep.StatusCode)
	}
	var mu sync.Mutex
	delivered := map[[2]int]time.Time{}
	tapDone := make(chan error, 1)
	go func() {
		tapDone <- readTap(rep.Body, func(ev wal.Event) { mu.Lock(); delivered[[2]int{ev.Cascade, ev.Node}] = time.Now(); mu.Unlock() })
	}()

	src := newEventSource(zipf, rand.New(rand.NewSource(int64(e.seed)+1)), e.fx.n, e.fx.cascades)
	var handler []time.Duration
	var sendErr error
	send := func(i int, _ time.Time) (feedEvent, bool) {
		ev, size := src.next()
		body, _ := json.Marshal(ev) // a struct of numbers always marshals
		d, code := serveTimed(e.tr, primary.Handler(), "serve.handler_events", uint64(i+1), http.MethodPost, "/v1/events", body)
		acked := time.Now()
		if code != 200 {
			sendErr = fmt.Errorf("in-process event: status %d", code)
			return feedEvent{}, false
		}
		handler = append(handler, d)
		return feedEvent{id: ev.Cascade, node: ev.Node, size: size, acked: acked}, true
	}
	tapped := func(fe feedEvent) (time.Time, bool) {
		mu.Lock()
		defer mu.Unlock()
		at, ok := delivered[[2]int{fe.id, fe.node}]
		return at, ok
	}
	// An event counts as seen once it is both on the tap and visible on
	// the follower.
	visible := func(fe feedEvent) bool {
		code, m := fget(fmt.Sprintf("/v1/cascades/%d", fe.id))
		size, ok := m["size"].(float64)
		_, onTap := tapped(fe)
		return onTap && code == 200 && ok && int(size) >= fe.size
	}
	fr := feed(context.Background(), replSeconds*time.Second, send, visible)
	cancel()
	<-tapDone
	if sendErr != nil {
		return sendErr
	}
	if fr.unseen > 0 {
		return fmt.Errorf("in-process replication: %d of %d events not visible within %v", fr.unseen, len(fr.measured), freshTimeout)
	}
	var fresh, delivery []float64
	for _, fe := range fr.measured {
		at, _ := tapped(fe)
		fresh = append(fresh, float64(fe.seen.Sub(fe.acked))/float64(time.Millisecond))
		delivery = append(delivery, float64(at.Sub(fe.acked))/float64(time.Millisecond))
	}
	e.res.lateP99 = max(e.res.lateP99, summarize(durations(fr.late, time.Microsecond)).Tail)
	l.set("serve.handler_events_us", p50(handler, time.Microsecond), len(handler))
	// The tap and the follower read separate streams, so an event can
	// reach one before the other; apply is the difference of medians.
	l.set("repl.stream_delivery_ms", median(delivery), len(delivery))
	l.set("repl.follower_apply_ms", median(fresh)-median(delivery), len(fresh))
	return nil
}

// readTap decodes replication stream items (see internal/repl) until
// the stream ends, calling got for every event frame.
func readTap(r io.Reader, got func(wal.Event)) error {
	br := bufio.NewReader(r)
	const itemHeaderLen = 1 + 8 + 8 + 8
	var hdr [itemHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		switch hdr[0] {
		case 'H':
			continue
		case 'F':
		default:
			return fmt.Errorf("repl tap: unknown item type %q", hdr[0])
		}
		var n [4]byte
		if _, err := io.ReadFull(br, n[:]); err != nil {
			return err
		}
		frame := make([]byte, binary.LittleEndian.Uint32(n[:]))
		if _, err := io.ReadFull(br, frame); err != nil {
			return err
		}
		if len(frame) < 8 {
			return fmt.Errorf("repl tap: short frame")
		}
		ev, err := wal.DecodeEvent(frame[8:]) // frame = len, crc, payload
		if err != nil {
			return err
		}
		got(ev)
	}
}

// trainLayers times the paper's pipeline stage by stage on the fixture,
// as `viralcast infer` runs it.
func trainLayers(e *env, l layers) error {
	tr, cs, n := e.tr, e.fx.cascades, e.fx.n
	var g *graph.Graph
	var err error
	d := timed(tr, "cooccur.build", 0, 1, func() { g, err = cooccur.Build(cs, n, cooccur.Options{}) })
	if err != nil {
		return err
	}
	l.set("cooccur.build_ms", float64(d)/float64(time.Millisecond), 1)
	var part *slpa.Partition
	d = timed(tr, "slpa.detect", 0, 1, func() { part = slpa.Detect(g, slpa.Options{}, xrand.New(e.seed^0x5eed)) })
	l.set("slpa.detect_ms", float64(d)/float64(time.Millisecond), 1)
	cfg := infer.Config{K: trainTopics, MaxIter: trainIters, Seed: e.seed}.WithDefaults()
	hier := timed(tr, "infer.hierarchical", 0, 1, func() {
		_, _, err = infer.HierarchicalCtx(context.Background(), cs, n, part, cfg, infer.ParallelOptions{Workers: e.nproc}, infer.Resilience{})
	})
	if err != nil {
		return err
	}
	l.set("infer.hierarchical_ms", float64(hier)/float64(time.Millisecond), 1)
	// The profiled run is sequential; its per-community task times give
	// the critical path (longest task per level, summed) and the share
	// of the parallel run's worker time spent in tasks.
	var profiles []infer.LevelProfile
	timed(tr, "infer.hierarchical_profiled", 0, 1, func() {
		_, profiles, err = infer.HierarchicalProfiled(cs, n, part, cfg, 1, 0)
	})
	if err != nil {
		return err
	}
	var critical, total time.Duration
	for _, p := range profiles {
		var longest time.Duration
		for _, t := range p.TaskDurations {
			total += t
			longest = max(longest, t)
		}
		critical += longest
	}
	l.set("infer.critical_path_ms", float64(critical)/float64(time.Millisecond), len(profiles))
	l.set("infer.parallel_efficiency", float64(total)/(float64(e.nproc)*float64(hier)), len(profiles))
	return nil
}
