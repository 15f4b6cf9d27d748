package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"time"
)

// Fixed settings of the train workload: `viralcast infer` as a user
// runs it (K=4, 30 iterations per level, one worker per CPU).
const (
	trainTopics = 4
	trainIters  = 30
	deployCheck = 256 // cascades made live on the deployed model and checked
	minFits     = 3   // fits per run: the median of three, and a check that fitting is deterministic
)

var loglikRE = regexp.MustCompile(`final loglik (-?[0-9.]+)`)

// runTrain runs `viralcast infer` back to back until seconds have
// passed (at least minFits times), checks that every fit produced the same model
// and log-likelihood, then deploys the model with `viralcast serve`
// (timed setupRepeats times) and checks a batch of its predictions
// against the oracle on the trained model.
func runTrain(e *env) (headline, error) {
	var h headline
	var walls, cpus, rss []float64
	// A traced run makes two passes of one fit each, compared with
	// each other, to stay well inside the run time limit.
	fits := minFits
	if e.res.Trace {
		fits = 1
	}
	loglik, _ := e.res.Inputs["final_loglik"].(string)
	modelHash, _ := e.res.Inputs["model_sha256_16"].(string)
	d := time.Duration(e.seconds) * time.Second
	start := time.Now()
	model := filepath.Join(e.dir, "trained.csv")
	for k := 0; k < fits || time.Since(start) < d; k++ {
		var stderr bytes.Buffer
		cmd := childCommand(e.bin, "infer", "-in", e.fx.cascadesPath, "-topics", fmt.Sprint(trainTopics),
			"-iters", fmt.Sprint(trainIters), "-workers", fmt.Sprint(e.nproc), "-seed", fmt.Sprint(e.seed), "-out", model)
		cmd.Stderr = &stderr
		_, end := e.tr.begin("client.infer", 0, uint64(k+1))
		t0 := time.Now()
		err := cmd.Run()
		wall := time.Since(t0)
		end()
		e.attempt(1)
		if err != nil {
			e.fail(1, fmt.Errorf("infer: %v: %.300s", err, stderr.String()))
			continue
		}
		walls = append(walls, float64(wall)/float64(time.Millisecond))
		cpus = append(cpus, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
		rss = append(rss, rusageMB(cmd.ProcessState))
		m := loglikRE.FindStringSubmatch(stderr.String())
		sum := sha256.New()
		if err := hashFile(sum, model); err != nil {
			return h, err
		}
		hash := hex.EncodeToString(sum.Sum(nil))[:16]
		switch {
		case m == nil:
			e.fail(1, fmt.Errorf("infer printed no final loglik: %.300s", stderr.String()))
		case loglik == "":
			loglik, modelHash = m[1], hash
		case m[1] != loglik || hash != modelHash:
			e.fail(1, fmt.Errorf("fit %d gave loglik %s model %s, the first fit gave %s %s", k, m[1], hash, loglik, modelHash))
		}
	}
	if len(walls) == 0 {
		return h, fmt.Errorf("every infer run failed: %v", e.res.Errors)
	}
	wd := summarize(walls)

	// Deploy the trained model: the set-up a user pays after training.
	args := []string{"serve", "-model", model, "-cascades", e.fx.cascadesPath,
		"-seed", fmt.Sprint(predictSeed), "-flush-every", "0"}
	daemon, setups, err := startReady(e, "deploy", args, nil)
	if err != nil {
		return h, err
	}
	defer daemon.kill()
	c := newClient()
	check := e.fx.cascades[:min(deployCheck, len(e.fx.cascades))]
	if err := makeLive(c, daemon.base, events(check)); err != nil {
		return h, err
	}
	o, err := newOracle(model, e.fx.cascadesPath, predictSeed, check)
	if err != nil {
		return h, err
	}
	if o.gen, err = readyGeneration(c, daemon.base); err != nil {
		return h, err
	}
	o.fixed = true // the deployed daemon neither flushes nor ingests after makeLive
	hits0, miss0, err := cacheCounters(c, daemon.base)
	if err != nil {
		return h, err
	}
	ids := fixtureIDs(check)
	st, b, err := do(c, http.MethodPost, daemon.base+"/v1/predict:batch", batchRequest(ids))
	e.attempt(len(ids))
	if err == nil {
		_, err = o.checkBatch(ids, st, b)
	}
	if err != nil {
		e.fail(len(ids), err)
	}
	hits1, miss1, err := cacheCounters(c, daemon.base)
	if err != nil {
		return h, err
	}
	e.cacheRatio(hits1-hits0, miss1-miss0)
	if _, err := daemon.stop(); err != nil {
		return h, err
	}

	// A fit's VmHWM follows when its garbage collections happen to
	// run, so the headline is the median fit's, like its time.
	h = headline{setup: median(setups), p50: wd.P50, rssMB: median(rss)}
	e.detail("train_s", wd.P50/1000, "s", wd.N, 0.5, "one `viralcast infer` wall time")
	e.detail("train_slowest_s", wd.Tail/1000, "s", wd.N, wd.TailQ, "")
	e.detail("train_cpu_s", median(cpus), "s", len(cpus), 0.5, "one `viralcast infer` user + system CPU time")
	e.detail("setup_s", h.setup, "s", len(setups), 0.5, "trained model deploy: serve exec -> /readyz 200")
	e.detail("peak_rss_mb", h.rssMB, "MB", len(rss), 0.5, "median fit's infer VmHWM")
	o.report(e, "deployed predictions vs the oracle on the trained model")
	e.detail("error_rate", ratio(e.res.Failed, e.res.Attempted), "ratio", e.res.Attempted, 0, "")
	e.res.Inputs["infer_flags"] = fmt.Sprintf("infer -topics %d -iters %d -workers %d -seed %d", trainTopics, trainIters, e.nproc, e.seed)
	e.res.Inputs["final_loglik"] = loglik
	e.res.Inputs["model_sha256_16"] = modelHash
	return h, nil
}
