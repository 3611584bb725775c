// Package mapper implements NN-Baton's post-design flow (§IV-D): the
// exhaustive per-layer search over the hierarchical mapping space — two
// package-level and three chiplet-level spatial primitives, the 2×2 temporal
// orders, partition patterns with different height:width ratios, and tile
// sizes — evaluated through the C³P engine.
package mapper

import (
	"fmt"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/noc"
	"nnbaton/internal/sim"
	"nnbaton/internal/workload"
)

// Objective selects the metric the search minimizes.
type Objective int

const (
	// MinEnergy minimizes the total layer energy (the paper's per-layer
	// mapping objective).
	MinEnergy Objective = iota
	// MinEDP minimizes energy × runtime.
	MinEDP
)

// Option is one evaluated mapping candidate.
type Option struct {
	Analysis *c3p.Analysis
	Energy   energy.Breakdown
	Cycles   int64
}

// EDP returns the candidate's energy-delay product in pJ·s.
func (o Option) EDP() float64 {
	return energy.EDP(o.Energy, hardware.Seconds(o.Cycles))
}

// SpatialCombo renders the (package, chiplet) partition pair, e.g. "(C,H)" —
// the x-axis categories of Fig 11.
func (o Option) SpatialCombo() string {
	return fmt.Sprintf("(%v,%v)", o.Analysis.Map.PackageSpatial, o.Analysis.Map.ChipletSpatial)
}

// ceilDiv returns ⌈a/b⌉ for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// splitSeries are the tiling factors tried per dimension.
var splitSeries = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// tileCandidates returns deduplicated candidate tile extents ⌈dim/n⌉ for the
// split series, largest first.
func tileCandidates(dim, limit int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, n := range splitSeries {
		if n > dim {
			break
		}
		t := ceilDiv(dim, n)
		if t > limit || seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	if len(out) == 0 && dim >= 1 {
		out = append(out, min(dim, max(1, limit)))
	}
	return out
}

// planarPairs generates (HOt, WOt) candidates for a region: a square-biased
// series plus row- and column-stripe variants (the pattern ratios of §IV-C).
func planarPairs(h, w int) [][2]int {
	seen := make(map[[2]int]bool)
	var out [][2]int
	add := func(th, tw int) {
		if th < 1 || tw < 1 || th > h || tw > w {
			return
		}
		p := [2]int{th, tw}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		add(ceilDiv(h, n), ceilDiv(w, n)) // square-biased
		add(ceilDiv(h, n), w)             // row stripes
		add(h, ceilDiv(w, n))             // column stripes
		add(ceilDiv(h, n*n), w)           // fine row stripes
	}
	return out
}

// coreTilePairs generates (HOc, WOc) candidates bounded by the O-L1 psum
// capacity and the A-L1 streaming constraint.
func coreTilePairs(l *workload.Layer, hw *hardware.Config, hs, ws int) [][2]int {
	maxElems := hw.OL1Bytes / (3 * hw.Lanes)
	if maxElems < 1 {
		maxElems = 1
	}
	ci := min(hw.Vector, l.CI)
	fits := func(th, tw int) bool {
		if th*tw > maxElems {
			return false
		}
		return 2*l.TileInputBytes(th, tw, ci) <= int64(hw.AL1Bytes)
	}
	seen := make(map[[2]int]bool)
	var out [][2]int
	add := func(th, tw int) {
		th, tw = min(th, hs), min(tw, ws)
		if th < 1 || tw < 1 || !fits(th, tw) {
			return
		}
		p := [2]int{th, tw}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	// Largest feasible square, then smaller squares and stripes.
	for s := 8; s >= 1; s-- {
		add(s, s)
	}
	add(1, maxElems)
	add(1, min(maxElems, ws))
	add(2, maxElems/2)
	add(1, 4)
	return out
}

// chipletSplits enumerates the chiplet-level spatial alternatives for a
// hardware configuration: C, P (all grid patterns) and H (all proper
// csplit×grid factorizations).
type chipletSplit struct {
	kind    mapping.Spatial
	csplit  int
	pattern mapping.Pattern
}

func chipletSplits(hw hardware.Config) []chipletSplit {
	var out []chipletSplit
	out = append(out, chipletSplit{mapping.SpatialC, hw.Cores, mapping.Pattern{Rows: 1, Cols: 1}})
	for _, p := range mapping.GridPatterns(hw.Cores) {
		out = append(out, chipletSplit{mapping.SpatialP, 1, p})
	}
	for cs := 2; cs < hw.Cores; cs++ {
		if hw.Cores%cs != 0 {
			continue
		}
		for _, p := range mapping.GridPatterns(hw.Cores / cs) {
			out = append(out, chipletSplit{mapping.SpatialH, cs, p})
		}
	}
	return out
}

// packageSplits enumerates the package-level spatial alternatives: C plus
// every grid pattern of the P-type planar split.
type packageSplit struct {
	kind    mapping.Spatial
	pattern mapping.Pattern
}

func packageSplits(hw hardware.Config) []packageSplit {
	out := []packageSplit{{mapping.SpatialC, mapping.Pattern{}}}
	for _, p := range mapping.GridPatterns(hw.Chiplets) {
		out = append(out, packageSplit{mapping.SpatialP, p})
	}
	return out
}

// Config tunes the search.
type Config struct {
	Objective Objective
	// KeepTop retains the best K options (by objective) in SearchAll.
	KeepTop int
	// Rotate controls the rotating-transfer primitive (default on for
	// multichip packages; disable for the ablation study).
	DisableRotation bool
	// Workers bounds the intra-layer shard parallelism of SearchAll
	// (<=0 means GOMAXPROCS; 1 forces the serial path). Any value yields
	// identical results.
	Workers int
	// Fault is the ring-relevant degradation of the fabric the search maps
	// onto: hw describes the surviving uniform capability, and Fault names
	// the physical positions the directional ring must detour around
	// (hardware.Fabric.Envelopes produces matched pairs). The zero mask is
	// the healthy identity. Fault participates in the engine's memoization
	// key, so healthy and degraded searches never alias.
	Fault hardware.FaultMask
	// Counters, when non-nil, receives the search funnel tallies
	// (generated / bound-pruned / stage-pruned / evaluated candidates).
	Counters *Counters
	// SeedBound, when positive and finite, warm-starts the shared incumbent
	// bound of SearchAll before any candidate is generated — the engine's
	// cross-point warm-starting derives it from a neighboring hardware
	// point's solution. Soundness contract: the seed must be the exact
	// re-costed score (under THIS l/hw/cm/cfg) of the KeepTop-th best of at
	// least KeepTop distinct mappings that are members of this search space
	// (InSearchSpace); then the enumerated k-th best is ≤ the seed, the
	// strict (>) pruning keeps ties alive, and the result — including the
	// funnel's evaluated set, hence journals and reports — is byte-identical
	// to a cold search. Zero (or +Inf) means cold start.
	SeedBound float64
}

// Search returns the optimal mapping option for one layer, or an error if no
// valid mapping exists.
func Search(l workload.Layer, hw hardware.Config, cm *hardware.CostModel, cfg Config) (Option, error) {
	cfg.KeepTop = 1
	opts := SearchAll(l, hw, cm, cfg)
	if len(opts) == 0 {
		return Option{}, fmt.Errorf("mapper: no valid mapping for %s on %s", l.String(), hw.Tuple())
	}
	return opts[0], nil
}

// subtree is one (package split, chiplet split) shard of the mapping space —
// the unit of work the parallel search distributes across workers. The
// post-package-split region extents are precomputed so shards are
// self-contained.
type subtree struct {
	ps            packageSplit
	cs            chipletSplit
	hop, wop, cop int // region after the package split
	rotate        bool
}

// subtrees materializes every shard of the mapping space for a layer,
// skipping package splits the layer geometry rules out (the same rejects the
// exhaustive loop applies). Its order is the canonical enumeration order.
func subtrees(l workload.Layer, hw hardware.Config, cfg Config) []subtree {
	rotate := hw.Chiplets > 1 && !cfg.DisableRotation
	css := chipletSplits(hw)
	var out []subtree
	for _, ps := range packageSplits(hw) {
		hop, wop, cop := l.HO, l.WO, l.CO
		if ps.kind == mapping.SpatialC {
			if l.CO < hw.Chiplets {
				continue
			}
			cop = ceilDiv(l.CO, hw.Chiplets)
		} else {
			if ps.pattern.Rows > l.HO || ps.pattern.Cols > l.WO {
				continue
			}
			hop = ceilDiv(l.HO, ps.pattern.Rows)
			wop = ceilDiv(l.WO, ps.pattern.Cols)
		}
		for _, cs := range css {
			out = append(out, subtree{ps: ps, cs: cs, hop: hop, wop: wop, cop: cop, rotate: rotate})
		}
	}
	return out
}

// base returns the mapping with the subtree's split fields set and every tile
// field zero.
func (st *subtree) base() mapping.Mapping {
	return mapping.Mapping{
		PackageSpatial: st.ps.kind, PackagePattern: st.ps.pattern, Rotate: st.rotate,
		ChipletSpatial: st.cs.kind, ChipletCSplit: st.cs.csplit, ChipletPattern: st.cs.pattern,
	}
}

// walk yields every temporal-free probe mapping of the subtree. The tile
// generators are hoisted to the outermost level they depend on — cot
// candidates depend only on the region, core tiles only on the planar pair —
// so the inner loop touches no maps and performs no allocation. Both the
// pruned search and the exhaustive reference enumerate through this one
// walker, which is what guarantees they see identical candidate sets.
func (st *subtree) walk(l *workload.Layer, hw *hardware.Config, yield func(probe mapping.Mapping)) {
	base := st.base()
	cots := tileCandidates(st.cop, st.cop)
	for _, pp := range planarPairs(st.hop, st.wop) {
		hot, wot := pp[0], pp[1]
		if st.cs.pattern.Rows > hot || st.cs.pattern.Cols > wot {
			continue
		}
		hs, ws := ceilDiv(hot, st.cs.pattern.Rows), ceilDiv(wot, st.cs.pattern.Cols)
		cps := coreTilePairs(l, hw, hs, ws)
		for _, cot := range cots {
			if cot < st.cs.csplit {
				continue
			}
			for _, cp := range cps {
				probe := base
				probe.COt, probe.HOt, probe.WOt = cot, hot, wot
				probe.HOc, probe.WOc = cp[0], cp[1]
				yield(probe)
			}
		}
	}
}

// InSearchSpace reports whether SearchAll with this cfg would enumerate m —
// i.e. whether m is reachable through the subtree walker and the temporal
// expansion for (l, hw). The engine's warm-starting depends on it: a hint
// mapping carried over from a different hardware point can be Feasible here
// yet lie outside the heuristic enumeration, and such a mapping may score
// better than everything enumerable — seeding the incumbent from it would
// prune true top-K members. Only members may seed (see Config.SeedBound).
func InSearchSpace(l workload.Layer, hw hardware.Config, cfg Config, m mapping.Mapping) bool {
	return NewSpaceChecker(l, hw, cfg).Contains(m)
}

// SpaceChecker amortizes InSearchSpace over many mappings of one
// (layer, hardware, config) triple: the subtree enumeration and the
// layer/hardware validation run once at construction instead of per query.
// The engine's warm-start path probes several hint entries of KeepTop
// mappings each per search, where the per-call enumeration was the dominant
// miss-path cost.
type SpaceChecker struct {
	l   workload.Layer
	hw  hardware.Config
	sts []subtree
	ok  bool
}

// NewSpaceChecker builds a membership checker for SearchAll's enumeration of
// (l, hw) under cfg. An invalid layer or hardware yields a checker that
// reports false for every mapping.
func NewSpaceChecker(l workload.Layer, hw hardware.Config, cfg Config) *SpaceChecker {
	c := &SpaceChecker{l: l, hw: hw}
	if l.Validate() == nil && hw.Validate() == nil {
		c.sts = subtrees(l, hw, cfg)
		c.ok = true
	}
	return c
}

// Contains reports whether the search would enumerate m.
func (c *SpaceChecker) Contains(m mapping.Mapping) bool {
	l, hw := &c.l, &c.hw
	if !c.ok || m.Validate(*l, *hw) != nil {
		return false
	}
	for _, st := range c.sts {
		if st.ps.kind != m.PackageSpatial || st.ps.pattern != m.PackagePattern ||
			st.cs.kind != m.ChipletSpatial || st.cs.csplit != m.ChipletCSplit ||
			st.cs.pattern != m.ChipletPattern || st.rotate != m.Rotate {
			continue
		}
		if m.COt < st.cs.csplit || !containsInt(tileCandidates(st.cop, st.cop), m.COt) {
			return false
		}
		if st.cs.pattern.Rows > m.HOt || st.cs.pattern.Cols > m.WOt {
			return false
		}
		if !containsPair(planarPairs(st.hop, st.wop), m.HOt, m.WOt) {
			return false
		}
		hs, ws := ceilDiv(m.HOt, st.cs.pattern.Rows), ceilDiv(m.WOt, st.cs.pattern.Cols)
		if !containsPair(coreTilePairs(l, hw, hs, ws), m.HOc, m.WOc) {
			return false
		}
		sh := m.Shape(l, hw)
		return containsTemporal(temporalChoices(sh.C1, sh.H1*sh.W1), m.PackageTemporal) &&
			containsTemporal(temporalChoices(sh.C2, sh.H2*sh.W2), m.ChipletTemporal)
	}
	return false
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func containsPair(s [][2]int, a, b int) bool {
	for _, p := range s {
		if p[0] == a && p[1] == b {
			return true
		}
	}
	return false
}

func containsTemporal(s []mapping.Temporal, t mapping.Temporal) bool {
	for _, x := range s {
		if x == t {
			return true
		}
	}
	return false
}

// forEachTemporal expands a probe into its live temporal-order variants.
// Every other mapping property — feasibility, shape, the admissible lower
// bound — is temporal-invariant, so callers check those once per probe.
func forEachTemporal(probe mapping.Mapping, sh mapping.Shape, yield func(mapping.Mapping)) {
	for _, pt := range temporalChoices(sh.C1, sh.H1*sh.W1) {
		for _, ct := range temporalChoices(sh.C2, sh.H2*sh.W2) {
			m := probe
			m.PackageTemporal, m.ChipletTemporal = pt, ct
			yield(m)
		}
	}
}

// temporalVariants counts the mappings forEachTemporal yields for a shape.
func temporalVariants(sh *mapping.Shape) int64 {
	n := int64(len(temporalChoices(sh.C1, sh.H1*sh.W1)))
	return n * int64(len(temporalChoices(sh.C2, sh.H2*sh.W2)))
}

// enumerate walks the mapping space, evaluating every valid candidate
// through the C³P engine and the runtime simulator, and yields each option.
// It shares the subtree walker — and the fault-masked topology models — with
// the pruned search, so the two paths stay result-identical under any mask
// and any fabric.
func enumerate(l workload.Layer, hw hardware.Config, cm *hardware.CostModel, cfg Config, yield func(Option)) {
	topo, xbar, err := noc.NewInterconnect(hw, cfg.Fault)
	if err != nil {
		return
	}
	num, den := topo.D2DScale()
	consider := func(m mapping.Mapping) {
		a, err := c3p.Analyze(l, hw, m)
		if err != nil {
			return
		}
		tr := a.Traffic()
		phys := tr
		phys.ScaleD2D(num, den)
		br := energy.Price(&phys, &hw, cm)
		res, err := sim.SimulateTrafficOn(topo, xbar, a, &tr)
		if err != nil {
			return
		}
		yield(Option{Analysis: a, Energy: br, Cycles: res.Cycles})
	}
	for _, st := range subtrees(l, hw, cfg) {
		st.walk(&l, &hw, func(probe mapping.Mapping) {
			forEachTemporal(probe, probe.Shape(&l, &hw), consider)
		})
	}
}

// Temporal-order menus, shared as package-level backing arrays so
// temporalChoices is allocation-free.
var (
	bothOrders  = [...]mapping.Temporal{mapping.ChannelPriority, mapping.PlanePriority}
	channelOnly = [...]mapping.Temporal{mapping.ChannelPriority}
)

// temporalChoices returns both loop orders when a level has live channel and
// planar loops, and a single order otherwise (the nest is order-invariant).
func temporalChoices(cTrips, planarTrips int) []mapping.Temporal {
	if cTrips > 1 && planarTrips > 1 {
		return bothOrders[:]
	}
	return channelOnly[:]
}

// score returns the objective value of an option.
func score(o Option, obj Objective) float64 {
	if obj == MinEDP {
		return o.EDP()
	}
	return o.Energy.Total()
}

// SearchExhaustive evaluates every candidate of the mapping space — no
// pruning, no parallelism, no scratch reuse — and returns the best KeepTop
// options in the same deterministic (score, mapping.Compare) order as
// SearchAll. It is the reference implementation the randomized equivalence
// tests hold SearchAll to, and the baseline of the search benchmarks.
func SearchExhaustive(l workload.Layer, hw hardware.Config, cm *hardware.CostModel, cfg Config) []Option {
	if cfg.KeepTop <= 0 {
		cfg.KeepTop = 8
	}
	top := newTopK(cfg.KeepTop, cfg.Objective)
	enumerate(l, hw, cm, cfg, func(o Option) {
		top.add(o, score(o, cfg.Objective))
	})
	return top.opts
}

// ModelResult aggregates the optimal per-layer mappings over a whole model.
type ModelResult struct {
	Model   workload.Model
	Layers  []Option
	Energy  energy.Breakdown
	Cycles  int64
	Skipped []string // layers with no valid mapping
}

// Complete reports whether every layer of the model mapped: the aggregate
// Energy/Cycles only describe the whole model when this holds. Flows that
// compare models across configurations (CompareSimba, the DSE validity
// check) must reject incomplete results rather than compare unequal work.
func (r ModelResult) Complete() bool {
	return len(r.Skipped) == 0 && len(r.Layers) == len(r.Model.Layers)
}

// SearchModel maps every layer of a model with the per-layer optimal
// strategy ("NN-Baton provides a distinct mapping strategy layer-wise",
// §VI-A1) and aggregates energy and runtime.
//
// This is the sequential, uncached reference path; production flows route
// through engine.EvalModel, which parallelizes the per-layer search and
// memoizes it on layer shape while producing bit-identical results.
func SearchModel(m workload.Model, hw hardware.Config, cm *hardware.CostModel, cfg Config) (ModelResult, error) {
	res := ModelResult{Model: m}
	for _, l := range m.Layers {
		opt, err := Search(l, hw, cm, cfg)
		if err != nil {
			res.Skipped = append(res.Skipped, l.Name)
			continue
		}
		res.Layers = append(res.Layers, opt)
		res.Energy = res.Energy.Add(opt.Energy)
		res.Cycles += opt.Cycles
	}
	if len(res.Layers) == 0 {
		return res, fmt.Errorf("mapper: no layer of %s maps onto %s", m.Name, hw.Tuple())
	}
	return res, nil
}
