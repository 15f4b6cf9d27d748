// Command perfbench is viralcast's benchmark. It runs the shipped
// `viralcast` binary as child processes over loopback on one of three
// workloads (predict_hot, ingest_live, train), checks every answer
// against an in-process oracle, and prints the workload's end-to-end
// metrics. With -trace 1 it also times calls into each module's public
// functions in-process and prints the per-layer metrics instead.
//
//	perfbench -bin viralcast -workload predict_hot -seed 1 -seconds 15 -trace 0
//	perfbench compare -spec BENCHMARK.json parent-results/ change-results/
//
// run.sh builds both binaries from the checkout and passes the flags
// through; README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// env is what a workload needs to run.
type env struct {
	ctx     context.Context
	bin     string
	dir     string
	seed    uint64
	seconds int
	nproc   int
	fx      *fixture
	tr      *tracer // nil on an untraced pass
	res     *result
	mu      sync.Mutex // guards res's counters and errors
}

// attempt counts n answers asked for.
func (e *env) attempt(n int) {
	e.mu.Lock()
	e.res.Attempted += n
	e.mu.Unlock()
}

// fail records n wrong or failed answers (at most 20 messages kept).
func (e *env) fail(n int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.res.Failed += n
	if len(e.res.Errors) < 20 {
		e.res.Errors = append(e.res.Errors, err.Error())
	}
}

// detail records one printed measurement. A run too short to take a
// sample (say, no flush within a 3 s ingest_live run) records n=0.
func (e *env) detail(name string, v float64, unit string, n int, q float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, n, q, note = 0, 0, 0, "no samples in this run"
	}
	e.res.Detail = append(e.res.Detail, detail{Name: name, Value: v, Unit: unit, N: n, Quantile: q, Note: note})
}

// headline is a workload's end-to-end metrics before they are keyed.
type headline struct {
	setup, p50, rssMB float64
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	bin := fs.String("bin", "", "viralcast binary under test (required)")
	workload := fs.String("workload", "", "predict_hot, ingest_live or train")
	seed := fs.Uint64("seed", 1, "workload seed: fixture, id skew and event stream")
	seconds := fs.Int("seconds", 15, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := fs.String("work", ".bench_build", "scratch directory for fixtures, daemon logs and results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bin == "" {
		return fmt.Errorf("-bin is required")
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		return fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1")
	}
	runW := workloadFunc(*workload)
	if runW == nil {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		return err
	}
	if _, err := os.Stat(absBin); err != nil {
		return fmt.Errorf("binary under test: %w", err)
	}
	dir := filepath.Join(*work, fmt.Sprintf("run-%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	trace := *traceFlag == 1
	res := &result{Workload: *workload, Seed: *seed, Trace: trace, Seconds: *seconds, Metrics: map[string]value{}}
	res.Host = hostFacts(absBin)
	fx, err := makeFixture(dir, *seed)
	if err != nil {
		return err
	}
	res.Inputs = map[string]any{
		"fixture_sha256_16": fx.hash,
		"fixture_cascades":  len(fx.cascades),
		"fixture_nodes":     fx.n,
		"fixture_pairs":     fx.pairs,
		"fixture_edges":     fx.edges,
	}
	e := &env{ctx: context.Background(), bin: absBin, dir: dir, seed: *seed, seconds: *seconds,
		nproc: runtime.NumCPU(), fx: fx, res: res}

	h, err := runW(e)
	if err != nil {
		return err
	}
	if trace {
		// The traced pass repeats the workload with spans on; the
		// difference in its headline p50 is the tracing overhead.
		e.tr = newTracer()
		plain := res.Detail
		res.Detail = nil
		th, err := runW(e)
		if err != nil {
			return err
		}
		res.Detail = plain
		layers, err := runLayers(e, (th.p50-h.p50)/h.p50*100)
		if err != nil {
			return err
		}
		res.Layers = layers
		for _, l := range layers {
			res.Metrics[l.Name] = value{Value: l.Value, Unit: l.Unit}
		}
		res.SelfTimes = selfTimes(e.tr.snapshot())
	} else {
		res.Metrics["setup_s"] = value{Value: h.setup, Unit: "s"}
		res.Metrics["p50_ms"] = value{Value: h.p50, Unit: "ms"}
	}
	if res.Attempted > 0 {
		res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0
	return emit(res, *work, e.tr)
}

func workloadFunc(name string) func(*env) (headline, error) {
	switch name {
	case "predict_hot":
		return runPredictHot
	case "ingest_live":
		return runIngestLive
	case "train":
		return runTrain
	}
	return nil
}

// emit writes the result (and spans) under work/results and prints the
// human-readable report followed by the contract's summary line.
func emit(res *result, work string, tr *tracer) error {
	out := filepath.Join(work, "results")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%v-%d", res.Workload, res.Seed, res.Trace, time.Now().UnixNano()))
	if tr != nil {
		res.Spans = stem + ".spans.jsonl"
		if err := tr.write(res.Spans); err != nil {
			return err
		}
	}
	line, err := res.summaryLine()
	if err != nil {
		return err
	}
	if err := checkSummary(line, wantMetrics(res.Trace)); err != nil {
		return fmt.Errorf("internal: %w", err)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", b, 0o644); err != nil {
		return err
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d attempted, %d failed (error_rate %.6f), correct=%v\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed, res.ErrorRate, res.Correct)
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		res.Host.CPU, res.Host.NProc, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.Commit)
	inputs := make([]string, 0, len(res.Inputs))
	for k, v := range res.Inputs {
		inputs = append(inputs, fmt.Sprintf("%s=%v", k, v))
	}
	sort.Strings(inputs)
	fmt.Fprintf(w, "inputs: %s\n", strings.Join(inputs, " "))
	for _, m := range res.Errors {
		fmt.Fprintf(w, "error: %s\n", m)
	}
	for _, d := range res.Detail {
		q := ""
		if d.Quantile > 0 {
			q = fmt.Sprintf(" (p%g)", d.Quantile*100)
		}
		fmt.Fprintf(w, "  %-26s %14.4f %-6s n=%d%s %s\n", d.Name, d.Value, d.Unit, d.N, q, d.Note)
	}
	for _, l := range res.Layers {
		fmt.Fprintf(w, "  %-38s %14.4f %-6s n=%-6d -> %s\n", l.Name, l.Value, l.Unit, l.N, l.Moves)
	}
	for _, s := range res.SelfTimes {
		fmt.Fprintf(w, "  span %-34s count=%-6d total=%.3fms self=%.3fms\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
	fmt.Fprintf(w, "result file: %s\n", stem+".json")
	w.Write(line)
	w.WriteString("\n")
	return w.Flush()
}

// hostInfo records where and on what a result was measured.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	BinSHA256  string `json:"viralcast_sha256_16"`
}

func hostFacts(bin string) hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A git checkout names its commit; an exported tree has none, and
	// the binary's own hash then identifies what was measured. The
	// ceiling keeps git from searching above the working directory.
	git := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	s := sha256.New()
	if err := hashFile(s, bin); err == nil {
		h.BinSHA256 = hex.EncodeToString(s.Sum(nil))[:16]
	}
	return h
}
