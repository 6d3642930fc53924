package tune

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"latr/internal/fan"
	"latr/internal/kernel"
	"latr/internal/sim"
)

// SearchConfig sizes the evolutionary search.
type SearchConfig struct {
	// Seed drives every stochastic choice (initial population, selection,
	// crossover, mutation). The same seed reproduces the same history
	// byte for byte at any worker count.
	Seed uint64
	// Quick shrinks the per-cell workloads (same shapes).
	Quick bool
	// Population and Generations size the search; zero takes the
	// quick-mode budget documented in EXPERIMENTS.md (6×3) or the full
	// budget (8×4).
	Population  int
	Generations int
	// TournamentK is the tournament size for parent selection (default 3).
	TournamentK int
	// Elite is how many best candidates survive unchanged (default 1).
	Elite int
	// MutationRate is the per-field mutation probability (default 0.25).
	MutationRate float64
	// Workers fans fitness evaluation; <=0 means GOMAXPROCS. Results are
	// identical for every value.
	Workers int
	// Cells overrides the evaluation matrix (default Cells(Quick)).
	Cells []Cell
}

func (c SearchConfig) withDefaults() SearchConfig {
	if c.Population == 0 {
		c.Population = 8
		if c.Quick {
			c.Population = 6
		}
	}
	if c.Generations == 0 {
		c.Generations = 4
		if c.Quick {
			c.Generations = 3
		}
	}
	if c.TournamentK == 0 {
		c.TournamentK = 3
	}
	if c.Elite == 0 {
		c.Elite = 1
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.25
	}
	if len(c.Cells) == 0 {
		c.Cells = Cells(c.Quick)
	}
	return c
}

// Candidate is one evaluated genome.
type Candidate struct {
	Genome  kernel.Tunables
	Encoded string
	Fitness Fitness
}

// Generation is one generation's population, sorted best (lowest score)
// first with the canonical encoding as the deterministic tie-break.
type Generation struct {
	Candidates []Candidate
}

// Best returns the generation's top candidate.
func (g Generation) Best() Candidate { return g.Candidates[0] }

// Result is a finished search.
type Result struct {
	Space    ParamSpace
	Config   SearchConfig
	Cells    []Cell
	Baseline Candidate // the paper-default genome (always in generation 0)
	History  []Generation
	Best     Candidate // lowest score seen anywhere in the history
}

// Search runs the seeded evolutionary search. Fitness evaluations fan
// across cfg.Workers goroutines through internal/fan; every stochastic
// draw happens on the single-threaded side between generations, so the
// generation history is byte-identical at any worker count.
func Search(cfg SearchConfig) *Result {
	cfg = cfg.withDefaults()
	space := Space()
	rng := sim.NewRand(cfg.Seed)
	ev := NewEvaluator(cfg.Cells, cfg.Quick, cfg.Seed, cfg.Workers)

	// The fitness cache makes elites and rediscovered genomes free and,
	// because evaluation is pure, cannot perturb determinism.
	cache := map[string]Fitness{}
	evalAll := func(genomes []kernel.Tunables) []Candidate {
		var misses []kernel.Tunables
		seen := map[string]bool{}
		for _, g := range genomes {
			enc := space.Encode(g)
			if _, ok := cache[enc]; !ok && !seen[enc] {
				seen[enc] = true
				misses = append(misses, g)
			}
		}
		fresh := fan.Run(cfg.Workers, misses, func(_ int, g kernel.Tunables) Fitness {
			return ev.Fitness(g)
		})
		for i, g := range misses {
			cache[space.Encode(g)] = fresh[i]
		}
		out := make([]Candidate, len(genomes))
		for i, g := range genomes {
			enc := space.Encode(g)
			out[i] = Candidate{Genome: g, Encoded: enc, Fitness: cache[enc]}
		}
		sortCandidates(out)
		return out
	}

	genomes := make([]kernel.Tunables, cfg.Population)
	genomes[0] = space.Defaults()
	for i := 1; i < cfg.Population; i++ {
		genomes[i] = space.Random(rng)
	}
	cur := evalAll(genomes)
	res := &Result{Space: space, Config: cfg, Cells: cfg.Cells, History: []Generation{{Candidates: cur}}}

	defaultEnc := space.Encode(space.Defaults())
	for _, c := range cur {
		if c.Encoded == defaultEnc {
			res.Baseline = c
			break
		}
	}

	for gen := 1; gen <= cfg.Generations; gen++ {
		next := make([]kernel.Tunables, 0, cfg.Population)
		for i := 0; i < cfg.Elite && i < len(cur); i++ {
			next = append(next, cur[i].Genome)
		}
		for len(next) < cfg.Population {
			a := tournament(rng, cfg.TournamentK, len(cur))
			b := tournament(rng, cfg.TournamentK, len(cur))
			child := space.Crossover(rng, cur[a].Genome, cur[b].Genome)
			child = space.Mutate(rng, child, cfg.MutationRate)
			next = append(next, child)
		}
		cur = evalAll(next)
		res.History = append(res.History, Generation{Candidates: cur})
	}

	res.Best = res.History[0].Best()
	for _, g := range res.History[1:] {
		if better(g.Best(), res.Best) {
			res.Best = g.Best()
		}
	}
	return res
}

// tournament draws k candidate indices and returns the best (candidates
// are kept sorted, so the lowest index wins).
func tournament(rng *sim.Rand, k, n int) int {
	best := rng.Intn(n)
	for i := 1; i < k; i++ {
		if c := rng.Intn(n); c < best {
			best = c
		}
	}
	return best
}

// better orders candidates by score with the encoding as a total-order
// tie-break, so sorting is deterministic even across equal fitnesses.
func better(a, b Candidate) bool {
	if a.Fitness.Score != b.Fitness.Score {
		return a.Fitness.Score < b.Fitness.Score
	}
	return a.Encoded < b.Encoded
}

func sortCandidates(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool { return better(cs[i], cs[j]) })
}

// HistoryDump renders the full generation history in a canonical text
// form: one line per candidate with its encoding and scores. Two searches
// are byte-identical exactly when their dumps are.
func (r *Result) HistoryDump() string {
	var b strings.Builder
	for gi, g := range r.History {
		fmt.Fprintf(&b, "generation %d\n", gi)
		for _, c := range g.Candidates {
			fmt.Fprintf(&b, "  score=%.6f", c.Fitness.Score)
			for _, cs := range c.Fitness.Cells {
				fmt.Fprintf(&b, " %s=%.6f", cs.Cell, cs.Score)
			}
			fmt.Fprintf(&b, " %s\n", c.Encoded)
		}
	}
	return b.String()
}

// HistoryDigest hashes the canonical dump — the determinism witness the
// tune table prints, so renders at different worker counts compare.
func (r *Result) HistoryDigest() uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.HistoryDump()))
	return h.Sum64()
}
