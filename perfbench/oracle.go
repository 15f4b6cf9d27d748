package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/serve"
)

// oracle recomputes predictions in-process with the daemon's own
// loader on the same files: core.Predictor.PredictViral on the same
// model and the same cascade prefix. The daemon's answer must match it
// bit for bit. On a live feed, answers from a later model generation
// (after a flush refined the model) are checked for status, schema and
// prefix size only; checked counts how many answers the oracle
// compared.
type oracle struct {
	lm   *serve.LoadedModel
	pred *core.Predictor
	gen  uint64 // model generation the oracle's predictor equals
	// fixed: no flush and no event changes the daemon's state, so every
	// answer must come from generation gen and cover every event sent.
	fixed bool

	mu      sync.Mutex
	known   map[int][]cascade.Infection // every event sent per cascade, in time order
	memo    map[[2]int]oracleAnswer     // (id, size) -> answer
	checked int
	skipped int // answers from a generation the oracle does not model
}

type oracleAnswer struct {
	viral  bool
	margin float64
}

// newOracle loads the predictor exactly as `viralcast serve -model m
// -cascades c` does.
func newOracle(modelPath, cascadesPath string, seed uint64, cs []*cascade.Cascade) (*oracle, error) {
	load, err := serve.FileLoader(serve.FileLoaderConfig{
		ModelPath:   modelPath,
		TrainPath:   cascadesPath,
		TopFraction: 0.2,
		Train:       core.TrainConfig{Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	lm, err := load()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o := &oracle{lm: lm, pred: lm.Pred, known: map[int][]cascade.Infection{}, memo: map[[2]int]oracleAnswer{}}
	for _, c := range cs {
		o.known[c.ID] = append([]cascade.Infection(nil), c.Infections...)
	}
	return o, nil
}

// flush applies what the daemon's Server.Flush does to the model:
// System.Update on a fork with the flushed cascades (every live cascade
// of two or more infections that grew since the last flush, in id
// order), then a predictor retrain.
func (o *oracle) flush(cs []*cascade.Cascade) error {
	var dirty []*cascade.Cascade
	for _, c := range cs {
		if c.Size() >= 2 {
			dirty = append(dirty, c)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].ID < dirty[j].ID })
	next := o.lm.Sys.Fork()
	if err := next.Update(dirty); err != nil {
		return fmt.Errorf("oracle flush: %w", err)
	}
	pred, err := o.lm.Retrain(next)
	if err != nil {
		return fmt.Errorf("oracle flush: %w", err)
	}
	o.mu.Lock()
	o.pred = pred
	o.memo = map[[2]int]oracleAnswer{}
	o.mu.Unlock()
	return nil
}

// grow records an event the benchmark is about to send, before it is
// sent, so any answer the daemon gives covers a known prefix.
func (o *oracle) grow(ev serve.Event) {
	o.mu.Lock()
	o.known[ev.Cascade] = append(o.known[ev.Cascade], cascade.Infection{Node: ev.Node, Time: ev.Time})
	o.mu.Unlock()
}

// sent is the number of events sent for cascade id.
func (o *oracle) sent(id int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.known[id])
}

// report records oracle_checked. A run in which the oracle compared no
// answer has checked nothing, so it counts as one failure.
func (o *oracle) report(e *env, note string) {
	if o.checked == 0 {
		e.attempt(1)
		e.fail(1, fmt.Errorf("the oracle compared no answer bit for bit"))
	}
	e.detail("oracle_checked", float64(o.checked), "count", o.checked, 0, note)
}

// want computes (or recalls) the oracle answer for id's first size
// infections.
func (o *oracle) want(id, size int) (oracleAnswer, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if a, ok := o.memo[[2]int{id, size}]; ok {
		return a, nil
	}
	infs := o.known[id]
	if size < 1 || size > len(infs) {
		return oracleAnswer{}, fmt.Errorf("cascade %d answered at size %d, but only %d events were sent", id, size, len(infs))
	}
	c := &cascade.Cascade{ID: id, Infections: append([]cascade.Infection(nil), infs[:size]...)}
	viral, margin, err := o.pred.PredictViral(c)
	if err != nil {
		return oracleAnswer{}, fmt.Errorf("oracle on cascade %d: %w", id, err)
	}
	a := oracleAnswer{viral: viral, margin: margin}
	o.memo[[2]int{id, size}] = a
	return a, nil
}

// predictBody is the schema of a predict answer; pointer fields detect
// missing keys.
type predictBody struct {
	Cascade     *int     `json:"cascade"`
	Viral       *bool    `json:"viral"`
	Margin      *float64 `json:"margin"`
	Size        *int     `json:"size"`
	EarlyCutoff *float64 `json:"early_cutoff"`
	Threshold   *int     `json:"threshold"`
	Generation  *uint64  `json:"generation"`
	ShardID     *int     `json:"shard_id"`
	Epoch       *uint64  `json:"epoch"`
}

// checkPredict validates one predict answer for id: schema, then the
// oracle when the answer comes from the oracle's generation.
func (o *oracle) checkPredict(id int, b *predictBody) error {
	if b == nil || b.Cascade == nil || b.Viral == nil || b.Margin == nil || b.Size == nil ||
		b.EarlyCutoff == nil || b.Threshold == nil || b.Generation == nil || b.ShardID == nil || b.Epoch == nil {
		return fmt.Errorf("predict answer for cascade %d is missing fields", id)
	}
	if *b.Cascade != id {
		return fmt.Errorf("asked for cascade %d, answer is for %d", id, *b.Cascade)
	}
	if o.fixed {
		if *b.Generation != o.gen {
			return fmt.Errorf("cascade %d answered from generation %d, but the model is fixed at %d", id, *b.Generation, o.gen)
		}
		if n := o.sent(id); *b.Size != n {
			return fmt.Errorf("cascade %d answered at size %d, but all %d of its events were sent", id, *b.Size, n)
		}
	}
	if *b.Generation != o.gen {
		if want := o.sent(id); *b.Size < 1 || *b.Size > want {
			return fmt.Errorf("cascade %d answered at size %d, but only %d events were sent", id, *b.Size, want)
		}
		o.mu.Lock()
		o.skipped++
		o.mu.Unlock()
		return nil
	}
	a, err := o.want(id, *b.Size)
	if err != nil {
		return err
	}
	if a.viral != *b.Viral || math.Float64bits(a.margin) != math.Float64bits(*b.Margin) {
		return fmt.Errorf("cascade %d size %d: daemon says viral=%v margin=%v, oracle viral=%v margin=%v",
			id, *b.Size, *b.Viral, *b.Margin, a.viral, a.margin)
	}
	o.mu.Lock()
	o.checked++
	o.mu.Unlock()
	return nil
}

// checkSingle validates a GET /v1/cascades/{id}/predict reply.
func (o *oracle) checkSingle(id, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("predict %d: status %d: %.200s", id, status, body)
	}
	var b predictBody
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("predict %d: %w", id, err)
	}
	return o.checkPredict(id, &b)
}

type batchBody struct {
	Results []struct {
		Result *predictBody `json:"result"`
		Status int          `json:"status"`
		Error  string       `json:"error"`
	} `json:"results"`
	Count      *int    `json:"count"`
	Errors     *int    `json:"errors"`
	CacheHits  *int    `json:"cache_hits"`
	Generation *uint64 `json:"generation"`
}

// checkBatch validates a POST /v1/predict:batch reply slot by slot and
// returns the number of slots answered.
func (o *oracle) checkBatch(ids []int, status int, body []byte) (int, error) {
	if status != 200 {
		return 0, fmt.Errorf("predict:batch: status %d: %.200s", status, body)
	}
	var b batchBody
	if err := json.Unmarshal(body, &b); err != nil {
		return 0, fmt.Errorf("predict:batch: %w", err)
	}
	if b.Count == nil || b.Errors == nil || b.CacheHits == nil || b.Generation == nil {
		return 0, fmt.Errorf("predict:batch envelope is missing fields")
	}
	if len(b.Results) != len(ids) || *b.Count != len(ids) {
		return 0, fmt.Errorf("predict:batch: %d slots for %d ids (count %d)", len(b.Results), len(ids), *b.Count)
	}
	if *b.Errors != 0 {
		return 0, fmt.Errorf("predict:batch: %d failed slots", *b.Errors)
	}
	for i, r := range b.Results {
		if err := o.checkPredict(ids[i], r.Result); err != nil {
			return i, fmt.Errorf("predict:batch slot %d: %w", i, err)
		}
	}
	return len(ids), nil
}

// batchRequest is the predict:batch body for ids.
func batchRequest(ids []int) []byte {
	b, _ := json.Marshal(struct {
		Cascades []int `json:"cascades"`
	}{ids}) // a slice of ints always marshals
	return b
}
