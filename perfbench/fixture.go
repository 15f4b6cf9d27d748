package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/experiments"
	"viralcast/internal/serve"
)

// Fixture size. The generator is `viralcast simulate`'s SBM at its
// defaults (n=2000, 3000 cascades, window 10). Cascade sizes are
// heavy-tailed, so a fixed cascade count is not a fixed amount of work.
// The training pipeline's cost follows the co-occurrence graph: SLPA,
// most of `viralcast infer`'s time, visits every edge, one per distinct
// pair of nodes that share a cascade. Holding the within-cascade pair
// total fixed still left the edge count at 393k-539k across seeds, and
// infer's time followed it from 11 to 18 s. So the fixture fixes the
// count and, within edgeSlack, the edge count.
//
// Cascades are taken in generation order, keeping the running
// within-cascade pair count within 1/32 of its pro-rata share of a pair
// budget. A cascade is skipped if it would overshoot that band, or,
// while the count lags below the band, if it is smaller than average.
// The budget is bisected until the chosen cascades have edgeTarget
// edges, the median over seeds at a budget of 3.4M pairs.
const (
	fixtureNodes    = 2000
	fixtureCascades = 3000
	fixturePool     = 6000
	edgeTarget      = 450_000
	edgeSlack       = 4_500
)

// fixture is the generated input of one run: the cascade file every
// daemon trains its predictor on (and whose cascades are made live),
// and the embeddings file the serving workloads load.
type fixture struct {
	dir          string
	n            int
	cascades     []*cascade.Cascade
	pairs        int64 // within-cascade node pairs, counted with repeats
	edges        int64 // distinct node pairs that share a cascade
	cascadesPath string
	modelPath    string
	hash         string // sha256 over both files
}

// makeFixture generates the seed's fixture into dir. The serving model
// is the SBM's planted embeddings (the generator's ground truth), so a
// serving run does not pay for a fit; the train workload fits its own.
func makeFixture(dir string, seed uint64) (*fixture, error) {
	e := experiments.DefaultSBM()
	e.N = fixtureNodes
	e.Cascades = fixturePool + 1
	e.Train = fixturePool
	e.Seed = seed
	w, err := experiments.BuildSBMWorkload(e)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	fx := &fixture{dir: dir, n: fixtureNodes}
	var poolPairs int64
	for _, c := range w.Train {
		s := int64(c.Size())
		poolPairs += s * (s - 1) / 2
	}
	gap := int64(math.MaxInt64)
	for lo, hi, i := int64(0), poolPairs, 0; i < 32 && gap > edgeSlack/4; i++ {
		budget := (lo + hi) / 2
		cs, pairs := pickCascades(w.Train, budget)
		if cs == nil { // too few cascades fit a budget this large
			hi = budget
			continue
		}
		edges := distinctPairs(cs, fixtureNodes)
		if d := abs(edges - edgeTarget); d < gap {
			gap, fx.cascades, fx.pairs, fx.edges = d, cs, pairs, edges
		}
		if edges < edgeTarget {
			lo = budget
		} else {
			hi = budget
		}
	}
	if gap > edgeSlack {
		return nil, fmt.Errorf("fixture: no pair budget gives %d cascades with %d±%d edges (closest %d)",
			fixtureCascades, edgeTarget, edgeSlack, fx.edges)
	}
	fx.cascadesPath = filepath.Join(dir, "cascades.txt")
	fx.modelPath = filepath.Join(dir, "model.csv")
	if err := writeFile(fx.cascadesPath, func(w io.Writer) error { return cascade.Write(w, fx.cascades) }); err != nil {
		return nil, err
	}
	sys := core.NewSystem(w.Truth, core.TrainConfig{Topics: w.Truth.K(), Seed: seed})
	if err := writeFile(fx.modelPath, sys.SaveEmbeddings); err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, p := range []string{fx.cascadesPath, fx.modelPath} {
		if err := hashFile(h, p); err != nil {
			return nil, err
		}
	}
	fx.hash = hex.EncodeToString(h.Sum(nil))[:16]
	return fx, nil
}

// pickCascades takes fixtureCascades cascades from pool in order,
// keeping their running pair total near its share of budget, and
// returns them with that total, or nil if the pool runs out first.
func pickCascades(pool []*cascade.Cascade, budget int64) ([]*cascade.Cascade, int64) {
	var out []*cascade.Cascade
	var pairs int64
	slack := budget / 32
	for _, c := range pool {
		if len(out) == fixtureCascades {
			return out, pairs
		}
		s := int64(c.Size())
		p := s * (s - 1) / 2
		share := budget * int64(len(out)+1) / fixtureCascades
		over := pairs+p > share+slack
		lagging := pairs+p < share-slack && p < budget/fixtureCascades
		if !over && !lagging {
			pairs += p
			out = append(out, c)
		}
	}
	if len(out) < fixtureCascades {
		return nil, 0
	}
	return out, pairs
}

// distinctPairs counts the unordered node pairs that share a cascade:
// the edges of the co-occurrence graph `viralcast infer` builds.
func distinctPairs(cs []*cascade.Cascade, n int) int64 {
	seen := make([]uint64, (n*n+63)/64)
	var edges int64
	for _, c := range cs {
		infs := c.Infections
		for i := range infs {
			for j := i + 1; j < len(infs); j++ {
				u, v := min(infs[i].Node, infs[j].Node), max(infs[i].Node, infs[j].Node)
				if k := u*n + v; seen[k/64]&(1<<(k%64)) == 0 {
					seen[k/64] |= 1 << (k % 64)
					edges++
				}
			}
		}
	}
	return edges
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func hashFile(h io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(h, f)
	return err
}

// events flattens cascades into ingest events in cascade order, each
// cascade's infections in time order (the order Store.Append expects).
func events(cs []*cascade.Cascade) []serve.Event {
	var out []serve.Event
	for _, c := range cs {
		for _, inf := range c.Infections {
			out = append(out, serve.Event{Cascade: c.ID, Node: inf.Node, Time: inf.Time})
		}
	}
	return out
}

// zipfIDs draws cascade ids with a Zipf(1.1) popularity: a few cascades
// are hot and most are cold. Both the exponent and the random order of
// popularity are assumptions. No query trace of a virality service is
// at hand, and neither the paper nor its follow-up gives one; they set
// only how skewed the cache and the growing cascades are.
type zipfIDs struct {
	z    *rand.Zipf
	perm []int // perm[rank] is the cascade id with that popularity rank
}

// newZipfIDs gives the popularity ranks to the cascades in an order
// drawn from rng.
func newZipfIDs(rng *rand.Rand, cs []*cascade.Cascade) *zipfIDs {
	perm := fixtureIDs(cs)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return &zipfIDs{z: rand.NewZipf(rng, 1.1, 1, uint64(len(perm)-1)), perm: perm}
}

func (z *zipfIDs) next() int { return z.perm[z.z.Uint64()] }

// draw returns k ids.
func (z *zipfIDs) draw(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = z.next()
	}
	return out
}

func fixtureIDs(cs []*cascade.Cascade) []int {
	ids := make([]int, len(cs))
	for i, c := range cs {
		ids[i] = c.ID
	}
	return ids
}
