package engine

import (
	"math"
	"sort"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/mapping"
	"nnbaton/internal/noc"
	"nnbaton/internal/sim"
	"nnbaton/internal/workload"
)

// Cross-point incumbent warm-starting.
//
// A DSE sweep searches the same layer shapes over and over on neighboring
// hardware points, and neighboring points tend to share winning mappings: the
// best tiling on a 4-chiplet/8-core point is usually feasible — and nearly
// optimal — on the 4-chiplet/16-core point next door. The evaluator therefore
// keeps a per-shape table of the mappings that won already-solved points, and
// a new point re-validates and re-costs the nearest solved neighbor's
// mappings under its OWN configuration to seed the search's shared incumbent
// (mapper.Config.SeedBound) before any candidate is generated. The best-first
// frontier then terminates as soon as its admissible floors cross the seed,
// instead of first re-discovering a comparable incumbent from scratch.
//
// Soundness is the whole game (see the SeedBound contract in mapper): the
// seed must be an exact re-costed score of the KeepTop-th best of at least
// KeepTop distinct mappings that are members of the current search space.
// Under that contract the true k-th best score is ≤ the seed, the strict
// bound comparison keeps score-ties alive, and the warm result is
// byte-identical to the cold one. warmSeed therefore trusts NOTHING from the
// hint: every mapping is checked for search-space membership
// (mapper.InSearchSpace, which subsumes feasibility) and pushed through the
// full evaluation pipeline — C³P analysis, energy pricing, runtime simulation
// — exactly like a persistent-cache payload on load. A hint that fails any
// check is simply skipped; a poisoned hint degrades to a cold search, never
// to a wrong answer.
const (
	// maxHintsPerShape bounds the per-shape hint table (FIFO eviction).
	maxHintsPerShape = 16
	// maxHintProbes bounds how many neighbor entries (nearest first) a
	// search probes for a sound seed before giving up: re-costing is
	// KeepTop simulations per entry, so the miss path must stay cheap
	// relative to the search it failed to accelerate.
	maxHintProbes = 4
)

// hintEntry is one solved point's contribution: the hardware it was solved
// on and its winning mappings in rank order. Costs are deliberately NOT
// stored — they are meaningless under a different configuration, and
// re-deriving them is what keeps warm-starting sound.
type hintEntry struct {
	hw   hardware.Config
	maps []mapping.Mapping
}

// recordHint publishes a completed search's winning mappings to the hint
// table. Called on every successful search lead — fresh computes and
// persistent-cache hits alike, which is how hints cross shard boundaries:
// shard N's evaluator replays shard N−1's disk results and inherits their
// mappings as hints for its own fresh points.
func (e *Evaluator) recordHint(shape ShapeKey, hw hardware.Config, opts []mapper.Option) {
	if e.cfg.DisableWarmStart || len(opts) == 0 {
		return
	}
	maps := make([]mapping.Mapping, len(opts))
	for i, o := range opts {
		maps[i] = o.Analysis.Map
	}
	e.hintMu.Lock()
	defer e.hintMu.Unlock()
	if e.hints == nil {
		e.hints = make(map[ShapeKey][]hintEntry)
	}
	ents := e.hints[shape]
	for i := range ents {
		if ents[i].hw == hw {
			ents[i].maps = maps
			return
		}
	}
	ents = append(ents, hintEntry{hw: hw, maps: maps})
	if len(ents) > maxHintsPerShape {
		ents = ents[len(ents)-maxHintsPerShape:]
	}
	e.hints[shape] = ents
}

// bufDist is the per-buffer distance term: the absolute log2 ratio, so
// doubling a buffer costs the same step everywhere on the sweep grid.
func bufDist(a, b int) float64 {
	switch {
	case a == b:
		return 0
	case a <= 0 || b <= 0:
		return 1
	}
	return math.Abs(math.Log2(float64(a) / float64(b)))
}

// hwDistance scores how far apart two hardware points are for hint-neighbor
// selection. Compute-partition axes dominate (they reshape the mapping space
// outright), buffers count by log-ratio (they only move feasibility edges),
// and a topology mismatch is a heavy penalty (it changes D2D pricing and
// simulation wholesale). Only the relative order matters — the table probes
// nearest-first — so the weights are heuristic, not calibrated.
func hwDistance(a, b hardware.Config) float64 {
	d := 16*math.Abs(float64(a.Chiplets-b.Chiplets)) +
		8*math.Abs(float64(a.Cores-b.Cores)) +
		4*math.Abs(float64(a.Lanes-b.Lanes)) +
		4*math.Abs(float64(a.Vector-b.Vector))
	d += bufDist(a.AL2Bytes, b.AL2Bytes) + bufDist(a.AL1Bytes, b.AL1Bytes) +
		bufDist(a.WL1Bytes, b.WL1Bytes) + bufDist(a.OL1Bytes, b.OL1Bytes) +
		bufDist(a.OL2Bytes, b.OL2Bytes)
	if a.Topology != b.Topology {
		d += 32
	}
	return d
}

// warmSeed derives a sound incumbent seed for searching l on hw under cfg
// from the hint table, or reports a miss. The returned seed satisfies the
// mapper.Config.SeedBound contract: it is the exact score, under THIS
// configuration, of the KeepTop-th best of ≥ KeepTop distinct search-space
// members, so seeding with it is result-identical to a cold search.
func (e *Evaluator) warmSeed(l workload.Layer, hw hardware.Config, cfg mapper.Config) (float64, bool) {
	e.hintMu.Lock()
	ents := append([]hintEntry(nil), e.hints[ShapeOf(l)]...)
	e.hintMu.Unlock()
	if len(ents) == 0 {
		e.warmMisses.Add(1)
		return 0, false
	}
	topo, xbar, err := noc.NewInterconnect(hw, cfg.Fault)
	if err != nil {
		e.warmMisses.Add(1)
		return 0, false
	}
	num, den := topo.D2DScale()
	sort.SliceStable(ents, func(i, j int) bool {
		return hwDistance(ents[i].hw, hw) < hwDistance(ents[j].hw, hw)
	})
	checker := mapper.NewSpaceChecker(l, hw, cfg)
	probes := min(maxHintProbes, len(ents))
	for _, ent := range ents[:probes] {
		var scores []float64
		for _, m := range ent.maps {
			// Membership first: a mapping outside the current heuristic
			// enumeration can score below every enumerable candidate, which
			// would make the seed unsound and prune true top-K members.
			if !checker.Contains(m) {
				continue
			}
			a, err := c3p.Analyze(l, hw, m)
			if err != nil {
				continue
			}
			tr := a.Traffic()
			phys := tr
			phys.ScaleD2D(num, den)
			br := energy.Price(&phys, &hw, e.cm)
			res, err := sim.SimulateTrafficOn(topo, xbar, a, &tr)
			if err != nil {
				continue
			}
			s := br.Total()
			if cfg.Objective == mapper.MinEDP {
				s = energy.EDP(br, hardware.Seconds(res.Cycles))
			}
			scores = append(scores, s)
		}
		// One entry's mappings are pairwise distinct (they are a prior
		// search's top-K), so K surviving scores are K distinct members and
		// their K-th smallest dominates the true K-th best.
		if len(scores) >= cfg.KeepTop {
			sort.Float64s(scores)
			if seed := scores[cfg.KeepTop-1]; seed > 0 && !math.IsInf(seed, 1) {
				e.warmHits.Add(1)
				return seed, true
			}
		}
	}
	e.warmMisses.Add(1)
	return 0, false
}

// recordSeedGap measures how tight a warm seed turned out to be: the slack
// between the seed and the search's actual k-th best score, in basis points.
// 0 bp means the neighbor's mappings were already optimal here; large gaps
// mean the hint bought little pruning. Aggregated into Stats.WarmStartSeedGap.
func (e *Evaluator) recordSeedGap(cfg mapper.Config, opts []mapper.Option) {
	if len(opts) == 0 {
		return
	}
	kth := score(opts[len(opts)-1], cfg.Objective)
	if kth <= 0 || cfg.SeedBound < kth {
		return
	}
	e.warmSeedGap.Add(int64(math.Round(1e4 * (cfg.SeedBound - kth) / kth)))
}

// score mirrors the mapper's option ordering key (energy total, or EDP).
func score(o mapper.Option, obj mapper.Objective) float64 {
	if obj == mapper.MinEDP {
		return o.EDP()
	}
	return o.Energy.Total()
}
