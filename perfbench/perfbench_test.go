package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"viralcast/internal/cascade"
)

// The percentile rule: the reported tail is the highest percentile, at
// most p99, with at least ten samples beyond it.
func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		d := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > d.Tail {
				beyond++
			}
		}
		switch {
		case d.N != n:
			t.Fatalf("n=%d: summary counts %d samples", n, d.N)
		case n <= minBeyond && (d.TailQ != 1 || d.Tail != float64(n)):
			t.Fatalf("n=%d: no percentile qualifies, want the maximum at q=1, got %v at q=%v", n, d.Tail, d.TailQ)
		case n > minBeyond && beyond < minBeyond:
			t.Fatalf("n=%d: tail p%v has %d samples beyond it", n, d.TailQ*100, beyond)
		case d.TailQ > maxTailQuantile && n > minBeyond:
			t.Fatalf("n=%d: tail quantile %v above p99", n, d.TailQ)
		}
	}
	if q := tailQ(1000); q != 0.99 {
		t.Fatalf("1000 samples support p99, got q=%v", q)
	}
	if q := tailQ(500); q != 0.98 {
		t.Fatalf("500 samples support p98, got q=%v", q)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// the definition the benchmark's spread acceptance uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.5, 1.25, 9, 7, 2}, [3]float64{1.625, 3.5, 8}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// Open-loop latency is timed from each request's due time, so a stall
// is charged to every request scheduled behind it, and lateness says
// how long each waited to be sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 30 * time.Millisecond
	r := openLoop(context.Background(), 1000, 50*time.Millisecond, 1, func(_, i int) (time.Time, error) {
		if i == 0 {
			time.Sleep(stall)
		}
		return time.Now(), nil
	})
	if len(r.Latency) != 50 || len(r.Late) != 50 || r.Failed != 0 {
		t.Fatalf("got %d latencies, %d lateness samples, %d failed; want 50, 50, 0", len(r.Latency), len(r.Late), r.Failed)
	}
	for i := 1; i < 20; i++ {
		// Request i was due at i ms but could only start after the
		// stalled first request finished at ~stall.
		floor := stall - time.Duration(i)*time.Millisecond
		if r.Late[i] < floor || r.Latency[i] < floor {
			t.Errorf("request %d: late %v, latency %v; both should be at least %v", i, r.Late[i], r.Latency[i], floor)
		}
	}
	for i := range r.Latency {
		if r.Latency[i] < r.Late[i] {
			t.Errorf("request %d: latency %v shorter than its lateness %v", i, r.Latency[i], r.Late[i])
		}
	}
}

func TestOpenLoopCountsFailuresOutsideLatency(t *testing.T) {
	r := openLoop(context.Background(), 1000, 20*time.Millisecond, 2, func(_, i int) (time.Time, error) {
		if i%2 == 1 {
			return time.Now(), os.ErrDeadlineExceeded
		}
		return time.Now(), nil
	})
	if r.Failed != 10 || len(r.Latency) != 10 || len(r.Late) != 20 {
		t.Fatalf("failed %d, latencies %d, lateness %d; want 10, 10, 20", r.Failed, len(r.Latency), len(r.Late))
	}
}

// The live feed keeps sending past its window until every measured
// event is seen, finds the visible prefix in log order, and times
// freshness from each event's ack.
func TestFeedWaitsForEveryMeasuredEvent(t *testing.T) {
	const lag = 120 * time.Millisecond // longer than a send interval
	sent := 0
	send := func(i int, _ time.Time) (feedEvent, bool) {
		sent++
		if i == 1 {
			return feedEvent{}, false // a failed send is not waited for
		}
		return feedEvent{id: i, size: 1, acked: time.Now()}, true
	}
	// Events become visible lag after their ack, in log order.
	visible := func(fe feedEvent) bool { return time.Since(fe.acked) >= lag }
	r := feed(context.Background(), 200*time.Millisecond, send, visible)
	if len(r.measured) != 3 || len(r.late) != 4 || r.unseen != 0 {
		t.Fatalf("measured %d, lateness %d, unseen %d; want 3, 4, 0", len(r.measured), len(r.late), r.unseen)
	}
	if sent <= 4 {
		t.Errorf("the feed stopped with its window (%d sends); it must run until the last event is seen", sent)
	}
	for _, fe := range r.measured {
		if fresh := fe.seen.Sub(fe.acked); fresh < lag || fresh > lag+50*time.Millisecond {
			t.Errorf("event %d: freshness %v, want %v plus at most a poll", fe.id, fresh, lag)
		}
	}
}

// The fixture is a function of the seed, with a fixed cascade count
// and, within edgeSlack, a fixed co-occurrence edge count.
func TestFixtureHoldsEdgeCount(t *testing.T) {
	a, err := makeFixture(t.TempDir(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeFixture(t.TempDir(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash != b.hash {
		t.Errorf("seed 7 gave fixtures %s and %s", a.hash, b.hash)
	}
	if len(a.cascades) != fixtureCascades || abs(a.edges-edgeTarget) > edgeSlack || distinctPairs(a.cascades, a.n) != a.edges {
		t.Errorf("%d cascades with %d edges; want %d with %d±%d", len(a.cascades), a.edges, fixtureCascades, edgeTarget, edgeSlack)
	}
}

func TestNames(t *testing.T) {
	var names []string
	for _, m := range endToEnd {
		names = append(names, m.Name)
	}
	for _, m := range perLayer {
		names = append(names, m.Name)
	}
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !validName(n) {
			t.Errorf("%q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("%q is used twice", n)
		}
		seen[n] = true
	}
	for _, bad := range []string{"", "a b", "-lead", ".lead", "p99/ms", "é", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("%q should be rejected", bad)
		}
	}
	if !validName(strings.Repeat("x", 64)) {
		t.Error("64 characters are allowed")
	}
}

func TestSummarySchema(t *testing.T) {
	want := []string{"a_ms", "b_s"}
	good := `{"correct":true,"attempted":3,"failed":1,"metrics":{"a_ms":{"value":1.25,"unit":"ms"},"b_s":{"value":2,"unit":"s"}}}`
	if err := checkSummary([]byte(good), want); err != nil {
		t.Fatalf("valid summary rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"extra key":         `{"correct":true,"attempted":3,"failed":1,"extra":0,"metrics":{"a_ms":{"value":1,"unit":"ms"},"b_s":{"value":2,"unit":"s"}}}`,
		"missing metric":    `{"correct":true,"attempted":3,"failed":1,"metrics":{"a_ms":{"value":1,"unit":"ms"}}}`,
		"unexpected metric": `{"correct":true,"attempted":3,"failed":1,"metrics":{"a_ms":{"value":1,"unit":"ms"},"c_s":{"value":2,"unit":"s"}}}`,
		"string value":      `{"correct":true,"attempted":3,"failed":1,"metrics":{"a_ms":{"value":"1","unit":"ms"},"b_s":{"value":2,"unit":"s"}}}`,
		"no unit":           `{"correct":true,"attempted":3,"failed":1,"metrics":{"a_ms":{"value":1},"b_s":{"value":2,"unit":"s"}}}`,
		"zero attempted":    `{"correct":true,"attempted":0,"failed":0,"metrics":{"a_ms":{"value":1,"unit":"ms"},"b_s":{"value":2,"unit":"s"}}}`,
		"fractional count":  `{"correct":true,"attempted":3.5,"failed":1,"metrics":{"a_ms":{"value":1,"unit":"ms"},"b_s":{"value":2,"unit":"s"}}}`,
		"not an object":     `[]`,
	} {
		if err := checkSummary([]byte(bad), want); err == nil {
			t.Errorf("%s: accepted %s", name, bad)
		}
	}
	// The summary a result renders passes its own check.
	r := &result{Attempted: 1, Metrics: map[string]value{}}
	for _, m := range endToEnd {
		r.Metrics[m.Name] = value{Value: 0.5, Unit: m.Unit}
	}
	line, err := r.summaryLine()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSummary(line, wantMetrics(false)); err != nil {
		t.Fatalf("rendered summary %s: %v", line, err)
	}
}

// BENCHMARK.json is the contract the code implements: same workloads,
// metrics, units, directions and bounds, and nothing else.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var spec struct {
		Command   []string     `json:"command"`
		Paths     []string     `json:"paths"`
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []layerSpec  `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end\n%+v\ndiffers from the code's\n%+v", spec.EndToEnd, endToEnd)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, the code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if c := perLayer[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, c)
		}
	}
	// The gated workloads are a subset of those the code runs.
	why := map[string]string{}
	for _, w := range workloads {
		why[w.Name] = w.Why
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("%d gated workloads, the contract needs at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if want, ok := why[w.Name]; !ok || w.Why != want || workloadFunc(w.Name) == nil {
			t.Errorf("gated workload %q is not one the code runs, with the same why", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v / better %q out of contract", m.Name, m.Bound, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is required")
	}
	if !reflect.DeepEqual(spec.Paths, []string{"perfbench"}) || len(spec.Command) < 2 || spec.Command[1] != "perfbench/run.sh" {
		t.Errorf("command %v / paths %v do not name this directory", spec.Command, spec.Paths)
	}
}

// Self time subtracts the union of child intervals, clipped to the
// parent, so overlapping children are not counted twice.
func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "child", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "child", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "child", Start: 90 * ms, End: 120 * ms},
	}
	got := map[string]selfStat{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	if p := got["parent"]; p.TotalMS != 100 || p.SelfMS != 50 {
		t.Errorf("parent total %v self %v, want 100 and 50", p.TotalMS, p.SelfMS)
	}
	if c := got["child"]; c.Count != 3 || c.SelfMS != 80 {
		t.Errorf("child count %d self %v, want 3 and 80", c.Count, c.SelfMS)
	}
	var nilTracer *tracer
	if _, end := nilTracer.begin("x", 0, 0); end == nil {
		t.Error("a nil tracer must still return a callable end")
	}
}

func TestCompareMetric(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	clean := failures{attempted: 1000}
	if c := compareMetric(parent, faster, clean, clean, false, 0.1, true); c.wins != 1 || !strings.HasPrefix(c.verdict, "better") {
		t.Errorf("a uniformly faster change: wins %v, verdict %q", c.wins, c.verdict)
	}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	if c := compareMetric(parent, slower, clean, clean, false, 0.1, true); !strings.HasPrefix(c.verdict, "worse") {
		t.Errorf("a 20%% slower change with a 10%% bound: verdict %q", c.verdict)
	}
	if c := compareMetric(parent, parent, clean, clean, false, 0.1, true); c.verdict != "no regression" {
		t.Errorf("identical runs: verdict %q", c.verdict)
	}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}
	if c := compareMetric(noisy, slower, clean, clean, false, 0.1, true); !strings.HasPrefix(c.verdict, "unresolved") {
		t.Errorf("a parent spread wider than the bound: verdict %q", c.verdict)
	}
	higher := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	if c := compareMetric(parent, higher, clean, clean, true, 0.1, true); c.wins != 1 || !strings.HasPrefix(c.verdict, "better") {
		t.Errorf("higher-is-better throughput gain: wins %v verdict %q", c.wins, c.verdict)
	}
	// A faster change that gets answers wrong is not a gain.
	wrong := failures{failed: 3, attempted: 1000, incorrect: 1}
	if c := compareMetric(parent, faster, clean, wrong, false, 0.1, true); !strings.HasPrefix(c.verdict, "invalid") {
		t.Errorf("a faster change with failed runs: verdict %q", c.verdict)
	}
	if c := compareMetric(parent, faster, clean, wrong, false, 0.1, false); c.verdict != "-" {
		t.Errorf("an ungated metric gets no verdict: %q", c.verdict)
	}
}

func TestFixedOracleRejectsStaleOrShortAnswers(t *testing.T) {
	o := &oracle{gen: 2, fixed: true, known: map[int][]cascade.Infection{7: {{Node: 1}, {Node: 2, Time: 1}, {Node: 3, Time: 2}}}}
	body := func(gen uint64, size int) *predictBody {
		id, viral, margin, cut, thr, shard, epoch := 7, false, 0.0, 1.0, 1, 0, uint64(0)
		return &predictBody{Cascade: &id, Viral: &viral, Margin: &margin, Size: &size, EarlyCutoff: &cut,
			Threshold: &thr, Generation: &gen, ShardID: &shard, Epoch: &epoch}
	}
	if err := o.checkPredict(7, body(3, 3)); err == nil {
		t.Error("a fixed model accepted an answer from another generation")
	}
	if err := o.checkPredict(7, body(2, 2)); err == nil {
		t.Error("a fixed model accepted an answer on a prefix shorter than the events sent")
	}
	// On a live feed a later generation is checked for schema and
	// prefix size only.
	o.fixed = false
	if err := o.checkPredict(7, body(3, 2)); err != nil || o.skipped != 1 {
		t.Errorf("live feed, later generation: err %v, skipped %d", err, o.skipped)
	}
	if err := o.checkPredict(7, body(3, 4)); err == nil {
		t.Error("an answer covering more events than were sent was accepted")
	}
}
