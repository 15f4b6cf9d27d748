package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runCompare compares two sets of result files (parent, then change)
// metric by metric and workload by workload, following the
// choosing-metrics rules: medians and quartiles of each side, the
// fraction of (parent, change) pairs the change wins, and a verdict.
// A metric whose parent-side spread (quartile distance over median)
// exceeds its bound is unresolved unless every change run beats every
// parent run. A gain does not count when the change's runs fail more
// than the parent's: its gated metrics are then marked invalid.
func runCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each end-to-end metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [-spec BENCHMARK.json] <parent-results-dir> <change-results-dir>")
	}
	bounds, err := readBounds(*spec)
	if err != nil {
		return err
	}
	parent, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	for _, row := range compareRows(parent, change, bounds) {
		fmt.Fprintln(w, row)
	}
	return nil
}

// readBounds reads name -> (bound, better) from BENCHMARK.json.
func readBounds(path string) (map[string]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]metricSpec{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m
	}
	return out, nil
}

// runSet is one side of a comparison: per workload, each metric's
// value per run and the runs' failure counts.
type runSet map[string]*workloadRuns

type workloadRuns struct {
	values map[string][]float64
	failures
}

// failures sums one side's failed and attempted answers over its runs
// and counts the runs that were not correct.
type failures struct {
	failed, attempted, incorrect int
}

func (f failures) rate() float64 { return ratio(f.failed, f.attempted) }

// loadResults reads every untraced result file in dir, keeping the
// gated metrics, the per-workload detail metrics and the failures.
func loadResults(dir string) (runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := runSet{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace || r.Workload == "" {
			continue
		}
		wr := out[r.Workload]
		if wr == nil {
			wr = &workloadRuns{values: map[string][]float64{}}
			out[r.Workload] = wr
		}
		for name, v := range r.Metrics {
			wr.values[name] = append(wr.values[name], v.Value)
		}
		for _, d := range r.Detail {
			wr.values["detail."+d.Name] = append(wr.values["detail."+d.Name], d.Value)
		}
		wr.failed += r.Failed
		wr.attempted += r.Attempted
		if !r.Correct {
			wr.incorrect++
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced result files in %s", dir)
	}
	return out, nil
}

// compareRows renders one line per (workload, metric) present on both
// sides. Detail metrics carry no bound and get no verdict.
func compareRows(parent, change runSet, bounds map[string]metricSpec) []string {
	rows := []string{fmt.Sprintf("%-12s %-28s %12s %12s %12s %12s %8s %6s  %s",
		"workload", "metric", "parent_p50", "parent_iqr%", "change_p50", "change_iqr%", "delta%", "wins", "verdict")}
	var wls []string
	for wl := range parent {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	for _, wl := range wls {
		p, ch := parent[wl], change[wl]
		if ch == nil {
			continue
		}
		var names []string
		for name := range p.values {
			if _, ok := ch.values[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			a, b := p.values[name], ch.values[name]
			spec, gated := bounds[name]
			higher := gated && spec.Better == "higher"
			if !gated {
				higher = strings.HasSuffix(name, "_per_s")
			}
			c := compareMetric(a, b, p.failures, ch.failures, higher, spec.Bound, gated)
			rows = append(rows, fmt.Sprintf("%-12s %-28s %12.5g %12.2f %12.5g %12.2f %8.2f %6.2f  %s",
				wl, name, c.parentMedian, c.parentSpread*100, c.changeMedian, c.changeSpread*100, c.delta*100, c.wins, c.verdict))
		}
	}
	return rows
}

type comparison struct {
	parentMedian, changeMedian float64
	parentSpread, changeSpread float64 // quartile distance over median
	delta                      float64 // change relative to parent, + is worse
	wins                       float64 // share of pairs the change wins (ties count for neither)
	verdict                    string
}

// compareMetric applies the comparison rules to one metric's runs;
// pf and cf are the two sides' failures on the metric's workload.
func compareMetric(parent, change []float64, pf, cf failures, higherBetter bool, bound float64, gated bool) comparison {
	var c comparison
	var q1, q3 float64
	q1, c.parentMedian, q3 = quartiles(parent)
	c.parentSpread = (q3 - q1) / math.Abs(c.parentMedian)
	q1, c.changeMedian, q3 = quartiles(change)
	c.changeSpread = (q3 - q1) / math.Abs(c.changeMedian)
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	c.delta = sign * (c.changeMedian - c.parentMedian) / math.Abs(c.parentMedian)
	wins, pairs := 0, 0
	allBetter := true
	for _, p := range parent {
		for _, x := range change {
			pairs++
			if sign*(x-p) < 0 {
				wins++
			} else {
				allBetter = false
			}
		}
	}
	c.wins = float64(wins) / float64(pairs)
	gap := math.Abs(c.changeMedian-c.parentMedian) > (q3Minus(parent))
	switch {
	case !gated:
		c.verdict = "-"
	case cf.incorrect > 0 || cf.rate() > pf.rate():
		c.verdict = fmt.Sprintf("invalid: more failures (change %d of %d failed in %d incorrect runs, parent %d of %d)",
			cf.failed, cf.attempted, cf.incorrect, pf.failed, pf.attempted)
	case allBetter:
		c.verdict = "better (every change run beats every parent run)"
	case c.parentSpread > bound:
		c.verdict = fmt.Sprintf("unresolved (parent spread %.1f%% > bound %.0f%%)", c.parentSpread*100, bound*100)
	case c.wins >= 0.9 && gap:
		c.verdict = "better"
	case c.delta > bound:
		c.verdict = fmt.Sprintf("worse (beyond bound %.0f%%)", bound*100)
	default:
		c.verdict = "no regression"
	}
	return c
}

// q3Minus is the parent's own quartile distance, the spread a gain must
// exceed.
func q3Minus(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return q3 - q1
}
