package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricSpec is one gated end-to-end metric: its unit, which direction
// is better, and the share of the parent's median by which it may
// worsen before a change counts as a regression. The same list is
// BENCHMARK.json's end_to_end; a test keeps the two equal.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports on its last line.
// Each names the workload's own headline quantity (README.md has the
// per-workload definitions):
//
//	predict_hot: p50 = direct single predict, from due time
//	ingest_live: p50 = freshness (primary ack -> visible on the follower)
//	train:       p50 = one `viralcast infer` wall time
//
// Tails, batch throughput and peak RSS are printed and compared but
// not gated. On the shared 2-vCPU reference host the p99 of 1000
// predicts moved 2.4 -> 10.4 ms between identical runs, batch
// throughput followed the host's speed from 153k to 310k cascades/s
// over ten consecutive runs, and `viralcast infer`'s peak RSS ranged
// 102-170 MB across seeds: wider than any bound a regression gate can
// use.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// layerSpec is a per-layer metric from the traced run together with
// the end-to-end metric and workload it should move.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"-"`
}

var perLayer = []layerSpec{
	{"serve.handler_predict_us", "us", "lower", "predict_p50_us (p50_ms) on predict_hot; the rest of predict_p50_us is loopback + net/http"},
	{"serve.store_snapshot_ns", "ns", "lower", "predict_p50_us (p50_ms) on predict_hot"},
	{"features.extract_ns", "ns", "lower", "predict_p50_us (p50_ms) on predict_hot"},
	{"core.predict_viral_ns", "ns", "lower", "predict_p50_us (p50_ms) on predict_hot"},
	{"router.hop_us", "us", "lower", "routed_predict_p50_us on predict_hot"},
	{"serve.handler_predict_batch_hit_us", "us", "lower", "batch_cascades_per_s (cascades_per_s) on predict_hot"},
	{"serve.handler_predict_batch_miss_us", "us", "lower", "batch_cascades_per_s (cascades_per_s) on ingest_live"},
	{"features.extract_batch_ns_per_item", "ns", "lower", "batch_cascades_per_s (cascades_per_s) on ingest_live"},
	{"core.predict_viral_batch_ns_per_item", "ns", "lower", "batch_cascades_per_s (cascades_per_s) on ingest_live"},
	{"serve.cache_hit_ratio", "ratio", "higher", "batch_cascades_per_s (cascades_per_s): high on predict_hot, near 0 on ingest_live"},
	{"serve.handler_events_us", "us", "lower", "ingest_ack_p50_us on ingest_live"},
	{"serve.store_append_ns", "ns", "lower", "ingest_ack_p50_us on ingest_live"},
	{"wal.append_p50_us", "us", "lower", "ingest_ack_p99_us on ingest_live"},
	{"wal.append_p99_us", "us", "lower", "ingest_ack_p99_us on ingest_live"},
	{"wal.events_per_fsync", "count", "higher", "ingest_ack_p50_us on ingest_live"},
	{"repl.stream_delivery_ms", "ms", "lower", "freshness_p50_ms (p50_ms) on ingest_live"},
	{"repl.follower_apply_ms", "ms", "lower", "freshness_p50_ms (p50_ms) on ingest_live"},
	{"core.update_ms", "ms", "lower", "flush_s on ingest_live"},
	{"core.train_predictor_ms", "ms", "lower", "flush_s on ingest_live"},
	{"wal.compact_ms", "ms", "lower", "flush_s on ingest_live"},
	{"cooccur.build_ms", "ms", "lower", "train_s (p50_ms) on train"},
	{"slpa.detect_ms", "ms", "lower", "train_s (p50_ms) on train"},
	{"infer.hierarchical_ms", "ms", "lower", "train_s (p50_ms) on train"},
	{"infer.critical_path_ms", "ms", "lower", "train_s (p50_ms) on train"},
	{"infer.parallel_efficiency", "ratio", "higher", "train_s (p50_ms) on train"},
	{"bench.generator_late_p99_us", "us", "lower", "none: validates every open-loop metric"},
	{"bench.trace_overhead_pct", "%", "lower", "none: traced minus untraced headline p50, as a share of untraced"},
}

// workloads are the ones the benchmark runs. BENCHMARK.json gates
// predict_hot and train; ingest_live runs by hand, because its
// freshness p50 spread 10-31% across seeds, wider than any bound.
var workloads = []struct{ Name, Why string }{
	{"predict_hot", "read path on a fixed model: single predicts direct and routed at a fixed rate, batch=256 on Zipf ids served from the TTL cache"},
	{"ingest_live", "write path as a live feed: low-rate durable ingest, follower freshness, periodic flush, batch=256 on growing cascades (compute)"},
	{"train", "the paper's pipeline: viralcast infer (co-occurrence, SLPA, Algorithms 1-2) on the seed's fixture, then deploy"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a metric or workload.
func validName(s string) bool { return nameRE.MatchString(s) }

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is one named measurement printed for people and kept in the
// result file: each workload's named metrics with their sample counts.
type detail struct {
	Name     string  `json:"name"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Quantile float64 `json:"quantile,omitempty"`
	Note     string  `json:"note,omitempty"`
}

// result is everything one run measured; it is written to the results
// directory and its summary is the run's last stdout line.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Seconds   int              `json:"seconds"`
	Host      hostInfo         `json:"host"`
	Inputs    map[string]any   `json:"inputs"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	ErrorRate float64          `json:"error_rate"`
	Errors    []string         `json:"errors,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Detail    []detail         `json:"detail"`
	Layers    []layerValue     `json:"layers,omitempty"`
	SelfTimes []selfStat       `json:"self_times,omitempty"`
	Spans     string           `json:"spans,omitempty"`

	// Live-run values the traced run reports as per-layer metrics.
	cacheHitRatio float64
	cacheBase     int
	lateP99       float64
}

type layerValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Moves string  `json:"moves"`
}

// summaryLine is the run's last stdout line.
func (r *result) summaryLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// checkSummary validates a last line against the contract: exactly the
// four keys, whole counts with attempted >= 1, and metrics naming
// exactly want, each a finite number with its unit.
func checkSummary(line []byte, want []string) error {
	var top map[string]json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(&top); err != nil {
		return fmt.Errorf("summary is not a JSON object: %w", err)
	}
	keys := make([]string, 0, len(top))
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if fmt.Sprint(keys) != "[attempted correct failed metrics]" {
		return fmt.Errorf("summary keys %v, want attempted correct failed metrics", keys)
	}
	var s struct {
		Correct   bool                       `json:"correct"`
		Attempted json.Number                `json:"attempted"`
		Failed    json.Number                `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec = json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	att, err1 := s.Attempted.Int64()
	fail, err2 := s.Failed.Int64()
	if err1 != nil || err2 != nil || att < 1 || fail < 0 || fail > att {
		return fmt.Errorf("summary counts attempted=%s failed=%s are not whole numbers with 1 <= attempted >= failed", s.Attempted, s.Failed)
	}
	if len(s.Metrics) != len(want) {
		return fmt.Errorf("summary has %d metrics, want %d", len(s.Metrics), len(want))
	}
	for _, name := range want {
		raw, ok := s.Metrics[name]
		if !ok {
			return fmt.Errorf("summary lacks metric %q", name)
		}
		var v map[string]json.RawMessage
		if err := json.Unmarshal(raw, &v); err != nil || len(v) != 2 {
			return fmt.Errorf("metric %q must be {value, unit}", name)
		}
		var x float64
		var u string
		if err := json.Unmarshal(v["value"], &x); err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %q value is not a finite number", name)
		}
		if err := json.Unmarshal(v["unit"], &u); err != nil || u == "" {
			return fmt.Errorf("metric %q has no unit", name)
		}
	}
	return nil
}

// wantMetrics lists the metric names a run's last line must carry.
func wantMetrics(trace bool) []string {
	var out []string
	if trace {
		for _, m := range perLayer {
			out = append(out, m.Name)
		}
		return out
	}
	for _, m := range endToEnd {
		out = append(out, m.Name)
	}
	return out
}
