package mapper

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/noc"
	"nnbaton/internal/obs"
	"nnbaton/internal/par"
	"nnbaton/internal/sim"
	"nnbaton/internal/workload"
)

// Counters receives the search funnel tallies of SearchAll. The best-first
// generator materializes a candidate — computes its admissible floor — only
// when the frontier reaches it, so Generated counts the candidates that
// actually entered the funnel, not the full space the exhaustive reference
// enumerates; the gap between the two is the lazy generator's saving. Each
// materialized candidate (probe × temporal order) lands in exactly one of the
// three outcome buckets, so Generated = BoundPruned + StagePruned + Evaluated
// always holds. The counters are nil-safe; a zero Counters discards tallies.
type Counters struct {
	// Generated counts feasible candidates materialized by the lazy
	// generator (floored probes × their temporal variants).
	Generated *obs.Counter
	// BoundPruned counts materialized candidates discarded by the admissible
	// lower bound — at floor time or when the frontier terminated — before
	// any C³P analysis ran.
	BoundPruned *obs.Counter
	// StagePruned counts candidates dropped after traffic/energy evaluation
	// but before the runtime simulator ran.
	StagePruned *obs.Counter
	// Evaluated counts candidates that went through the full pipeline
	// including simulation.
	Evaluated *obs.Counter
	// FloorsComputed counts exact per-probe admissible floors computed by the
	// generator — the dominant pre-evaluation cost the best-first ordering
	// exists to shrink (one floor covers every temporal variant of a probe).
	FloorsComputed *obs.Counter
	// HeapPopped counts best-first frontier pops (candidate groups expanded
	// plus probes scheduled), a direct measure of how much of the space the
	// search actually visited before the incumbent cut it off.
	HeapPopped *obs.Counter
	// Infeasible counts popped cells that then failed mapping.Feasible:
	// frontier work spent on mappings that fit no buffer. The frontier
	// checks each need at the level that decides it, so only a core-tile
	// need (O-L1, A-L1, non-rotating A-L2) can land a cell here.
	Infeasible *obs.Counter
}

// tally is the per-worker, allocation-free accumulator behind Counters.
type tally struct {
	generated, boundPruned, stagePruned, evaluated int64
	floors, popped, infeasible                     int64
}

func (t *tally) add(o tally) {
	t.generated += o.generated
	t.boundPruned += o.boundPruned
	t.stagePruned += o.stagePruned
	t.evaluated += o.evaluated
	t.floors += o.floors
	t.popped += o.popped
	t.infeasible += o.infeasible
}

func (c *Counters) flush(t tally) {
	if c == nil {
		return
	}
	c.Generated.Add(t.generated)
	c.BoundPruned.Add(t.boundPruned)
	c.StagePruned.Add(t.stagePruned)
	c.Evaluated.Add(t.evaluated)
	c.FloorsComputed.Add(t.floors)
	c.HeapPopped.Add(t.popped)
	c.Infeasible.Add(t.infeasible)
}

// topK maintains the best k options in ascending (score, mapping.Compare)
// order. The secondary key makes the retained set — and its order — a pure
// function of the candidate set: evaluation order, worker count and pruning
// cannot change which of two equal-scoring mappings survives.
type topK struct {
	k      int
	obj    Objective
	opts   []Option
	scores []float64
}

func newTopK(k int, obj Objective) *topK {
	return &topK{k: k, obj: obj, opts: make([]Option, 0, k), scores: make([]float64, 0, k)}
}

// pos returns the insertion index of (s, m) in the retained order.
func (t *topK) pos(s float64, m *mapping.Mapping) int {
	return sort.Search(len(t.opts), func(i int) bool {
		if t.scores[i] != s {
			return t.scores[i] > s
		}
		return mapping.Compare(&t.opts[i].Analysis.Map, m) > 0
	})
}

// worst returns the k-th best score, or +Inf while the set is not yet full.
// Any candidate whose score lower bound strictly exceeds it cannot enter the
// set; equal scores still can, through the Compare tie-break.
func (t *topK) worst() float64 {
	if len(t.opts) < t.k {
		return math.Inf(1)
	}
	return t.scores[len(t.scores)-1]
}

// wouldAccept reports whether add would retain the candidate.
func (t *topK) wouldAccept(s float64, m *mapping.Mapping) bool {
	return len(t.opts) < t.k || t.pos(s, m) < t.k
}

// add inserts the candidate, evicting the current worst when full.
func (t *topK) add(o Option, s float64) {
	i := t.pos(s, &o.Analysis.Map)
	if i >= t.k {
		return
	}
	if len(t.opts) < t.k {
		t.opts = append(t.opts, Option{})
		t.scores = append(t.scores, 0)
	}
	copy(t.opts[i+1:], t.opts[i:])
	copy(t.scores[i+1:], t.scores[i:])
	t.opts[i] = o
	t.scores[i] = s
}

// bfSubtree is the frontier's view of one subtree: the split fields every
// probe of the subtree shares, and the chiplet tiles that survived the
// rotating-chunk check (a range of the worker's tile buffer).
type bfSubtree struct {
	base mapping.Mapping
	cots []int
}

// bfGroup is one unexpanded candidate group of the best-first frontier: every
// probe of a subtree sharing one planar pair (HOt, WOt). st indexes the
// frontier's subtree list; the per-core region (hs, ws) and the core-tile
// candidates are computed once, used first by the group bound and again —
// without recomputation — when the group expands. cps is the group's own
// range of the worker's core-pair buffer.
type bfGroup struct {
	st       int32
	hot, wot int
	hs, ws   int
	cps      [][2]int
}

// bfNode is one frontier entry at one of four refinement levels, all of which
// carry the group they refine: a candidate group awaiting expansion into
// subgroups (cot < 0), a subgroup — the group under one fixed chiplet tile —
// awaiting per-core-tile refinement (cot >= 0 indexing the subtree's tile
// list, cp < 0), a cell — one (chiplet tile, core tile) choice, i.e. a single
// not-yet-materialized probe — awaiting its exact floor (cp >= 0 indexing the
// group's core pairs, nvar == 0), or a floored probe awaiting evaluation
// (nvar > 0, its temporal-variant count). A floored probe keeps its cell's
// (group, cot, cp) and is rebuilt from the subtree's base and the two tiles
// when it pops, so the frontier parks no Mapping anywhere and a heap sift
// swap moves 24 bytes; nvar lets the termination drain account bound-pruned
// candidates without recomputing shapes. bound is admissible at every level — it
// lower-bounds every probe the node can produce — so the heap pops in
// ascending floor order and the first pop above the incumbent threshold
// proves everything still queued can only be worse. The middle levels exist
// for tightness: fixing the chiplet tile makes the channel-product terms
// exact, and fixing the core tile makes every term exact, so most refined
// nodes die on the heap without the generator ever running the full
// feasibility + TrafficFloor pipeline for them.
type bfNode struct {
	bound float64
	group int32
	cot   int32
	cp    int32
	nvar  int32
}

// heapPush and heapPop are a minimal slice min-heap on bound, kept free of
// the container/heap interface so nodes never escape to the heap's interface
// boxes. Pop order among equal bounds is an implementation detail: result
// identity never depends on visit order, only on the candidate set.
func heapPush(h []bfNode, n bfNode) []bfNode {
	h = append(h, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].bound <= h[i].bound {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []bfNode) (bfNode, []bfNode) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].bound < h[small].bound {
			small = l
		}
		if r < len(h) && h[r].bound < h[small].bound {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}

// searchState is one worker's private scratch: the C³P analysis and its
// buffers, the best-first frontier with its tile buffers, and the funnel
// tally. Workers take it from statePool and return it after the search, so
// the frontier's slices keep their capacity across searches: a warm search
// allocates only its result, not its bookkeeping.
type searchState struct {
	sc     c3p.Scratch
	a      c3p.Analysis
	tally  tally
	heap   []bfNode
	subs   []bfSubtree
	groups []bfGroup
	cots   []int    // chiplet tiles of every subtree, sliced per subtree
	pairs  [][2]int // planar pairs of the subtree being seeded
	cps    [][2]int // core pairs of every group, sliced per group
}

// statePool recycles worker scratch across searches. A search may take its
// states from any earlier search — another layer, hardware point, fault mask
// or objective — so nothing in a state depends on them: runWorkers clears the
// tally and the frontier truncates its buffers before use.
var statePool = sync.Pool{New: func() any { return new(searchState) }}

// runWorkers runs body once per worker on pooled scratch with a cleared tally
// and returns the workers' summed funnel tally. body receives the worker's
// state, the worker index and the shard index (one shard per worker). The
// states go back to the pool only after a clean run: a panic may have left a
// state mid-search.
func runWorkers(workers int, body func(ws *searchState, w, i int)) (tally, error) {
	states := make([]*searchState, workers)
	for i := range states {
		states[i] = statePool.Get().(*searchState)
		states[i].tally = tally{}
	}
	err := par.ParallelForWorker(context.Background(), workers, workers, func(w, i int) error {
		body(states[w], w, i)
		return nil
	})
	var t tally
	if err != nil {
		return t, err
	}
	for _, ws := range states {
		t.add(ws.tally)
		statePool.Put(ws)
	}
	return t, nil
}

// lowerBound prices a probe's best case for the active objective: the C³P
// traffic floor (intrinsic fills, exact fixed terms), D2D-scaled for the
// topology's hop ratio, through the energy model and, for EDP, the
// compute-bound runtime. Both models are monotone in their traffic/cycle
// inputs, ceil scaling preserves component-wise ≤, and the floor
// under-counts nothing negative, so the true score of every temporal variant
// of the probe is ≥ this value — the admissibility property the pruning
// relies on. See DESIGN.md. num/den is the fabric's physical-to-logical D2D
// scale (noc.Topology.D2DScale: 1 on a healthy ring, where the bound reduces
// exactly to the pre-topology one; ≥ 1 on detoured or multi-hop fabrics).
func lowerBound(l *workload.Layer, hw *hardware.Config, cm *hardware.CostModel,
	m *mapping.Mapping, sh *mapping.Shape, obj Objective, num, den int64) float64 {
	var floor c3p.Traffic
	c3p.TrafficFloor(&floor, l, hw, m, sh)
	floor.ScaleD2D(num, den)
	e := energy.Price(&floor, hw, cm).Total()
	if obj == MinEDP {
		e *= hardware.Seconds(sim.ComputeBoundCyclesOf(l, hw, m, sh))
	}
	return e
}

// search carries the per-search immutable inputs shared by all workers.
type search struct {
	l   workload.Layer
	hw  hardware.Config
	cm  *hardware.CostModel
	cfg Config
	// topo and xbar are the interconnect models every worker simulates on;
	// their methods only read, so one pair serves all workers. The fault
	// mask reroutes the fabric around dead positions (the zero mask yields
	// the healthy topology).
	topo noc.Topology
	xbar *noc.Crossbar
	// d2dNum/d2dDen is the topology's physical-to-logical D2D traffic scale
	// (noc.Topology.D2DScale); equal on a healthy ring.
	d2dNum, d2dDen int64
	// rejected, when set, observes every popped cell that fails Feasible
	// (tests use it to see which need failed). Workers call it concurrently.
	rejected func(mapping.Mapping)
}

// newSearch builds the shared inputs of one search of l on hw under cfg, or
// reports the interconnect geometry the models cannot represent.
func newSearch(l workload.Layer, hw hardware.Config, cm *hardware.CostModel, cfg Config) (*search, error) {
	topo, xbar, err := noc.NewInterconnect(hw, cfg.Fault)
	if err != nil {
		return nil, err
	}
	num, den := topo.D2DScale()
	return &search{l: l, hw: hw, cm: cm, cfg: cfg, topo: topo, xbar: xbar, d2dNum: num, d2dDen: den}, nil
}

// minBound is the lock-free shared incumbent of the parallel search: the
// smallest k-th best score any worker has published so far. Workers fold it
// into their local pruning threshold so a strong incumbent found in one shard
// prunes every other shard. Lowering is a CAS-min; the bound only ever
// decreases, so a stale read is merely conservative, never unsound.
type minBound struct{ bits atomic.Uint64 }

// newMinBound returns a bound at +Inf — no incumbent yet.
func newMinBound() *minBound {
	b := &minBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

func (b *minBound) load() float64 { return math.Float64frombits(b.bits.Load()) }

// update lowers the bound to v when v is smaller; larger values are ignored.
func (b *minBound) update(v float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// chipletTiles appends to dst the chiplet-tile candidates the frontier
// expands for a subtree whose split fields base carries: the tiles the
// walker yields (COt at least the channel split) whose rotating weight
// chunk, if any, fits W-L1. Every dropped tile yields only infeasible
// probes, so the group bound taken over the survivors stays admissible for
// every feasible member.
func (s *search) chipletTiles(dst []int, st *subtree, base mapping.Mapping) []int {
	start := len(dst)
	dst = tileCandidates(dst, st.cop, st.cop)
	n := start
	for _, cot := range dst[start:] {
		base.COt = cot
		if cot >= st.cs.csplit && base.ChipletTileFits(&s.l, &s.hw) {
			dst[n] = cot
			n++
		}
	}
	return dst[:n]
}

// groupBound prices the best case of every probe a group restricted to the
// given chiplet-tile and core-tile candidates can produce: each shape-product
// term is minimized independently over the two candidate lists (sub-slices
// of the subtree's tiles and of g.cps) and assembled through
// c3p.GroupTrafficFloor — the group-level counterpart of lowerBound. The
// frontier calls it with the full lists (the cheap coarse bound), once per
// single tile when the group expands, which makes the channel terms exact
// and the subgroup bound correspondingly tighter, and once per single core
// pair when a subgroup expands. Admissible because every term is a true
// lower bound on its per-member value, the assembly mirrors the exact one
// branch for branch, and the energy model is linear with non-negative
// coefficients, so groupBound ≤ lowerBound(probe) ≤ score(probe) for every
// member probe (pinned by TestGroupBoundAdmissible).
func (s *search) groupBound(st *subtree, cots []int, g *bfGroup, cps [][2]int) float64 {
	l, hw := &s.l, &s.hw
	h1w1 := int64(ceilDiv(st.hop, g.hot)) * int64(ceilDiv(st.wop, g.wot))
	csplit := max(1, st.cs.csplit)
	const huge = math.MaxInt64
	var c1Min, c12Min, olChanMin int64 = huge, huge, huge
	for _, cot := range cots {
		c1 := int64(ceilDiv(st.cop, cot))
		cos := ceilDiv(cot, csplit)
		c12 := c1 * int64(ceilDiv(cos, hw.Lanes))
		c1Min = min(c1Min, c1)
		c12Min = min(c12Min, c12)
		olChanMin = min(olChanMin, c12*int64(min(hw.Lanes, cos)))
	}
	var h2w2Min, covMin, al1Min int64 = huge, huge, huge
	for _, cp := range cps {
		h2 := int64(ceilDiv(g.hs, cp[0]))
		w2 := int64(ceilDiv(g.ws, cp[1]))
		h2w2Min = min(h2w2Min, h2*w2)
		covMin = min(covMin, h2*int64(cp[0])*w2*int64(cp[1]))
		al1Min = min(al1Min, l.TileInputBytes(cp[0], cp[1], l.CI)*h2*w2)
	}
	terms := c3p.GroupFloorTerms{
		C1Min: c1Min, C12Min: c12Min, OLChanMin: olChanMin,
		H1W1: h1w1, H2W2Min: h2w2Min, PlanarCovMin: covMin,
		AL2Intr:    l.TileInputBytes(g.hot, g.wot, l.CI) * h1w1,
		AL1IntrMin: al1Min,
	}
	var tr c3p.Traffic
	c3p.GroupTrafficFloor(&tr, l, hw, st.ps.kind, st.rotate, csplit, &terms)
	tr.ScaleD2D(s.d2dNum, s.d2dDen)
	e := energy.Price(&tr, hw, s.cm).Total()
	if s.cfg.Objective == MinEDP {
		e *= hardware.Seconds(c3p.GroupCyclesFloor(l, hw, &terms))
	}
	return e
}

// runFrontier evaluates a set of subtree shards best-first through one shared
// frontier. The frontier starts with one node per candidate group (subtree ×
// planar pair), bounded by the cheap coarse group floor; popping a group
// refines it into one subgroup per chiplet tile (tighter bounds, channel
// terms exact); popping a subgroup refines it into one cell per core tile;
// popping a cell materializes its probe — one exact floor per
// feasibility-checked probe — and popping a floored probe runs the staged
// pipeline (C³P traffic/energy, then the simulator) over its temporal
// variants, exactly as the enumerate-then-filter loop did. Because every
// node's bound is admissible and the heap pops in ascending bound order, the
// first pop that strictly exceeds the incumbent threshold min(dest.worst(),
// shared) proves every queued and unrefined candidate scores at least as
// high, and the whole frontier terminates — the ~60k floors the old loop
// priced per layer collapse to the few hundred the frontier actually reaches.
// Spanning all of a worker's subtrees with one frontier (rather than one per
// subtree) is what lets the incumbent converge before weak subtrees spend
// anything: their groups die unrefined. Pruning compares bounds strictly (>):
// an exact tie with the threshold must still be evaluated because the Compare
// tie-break could admit it. The threshold only ever decreases, so a
// bound-pruned candidate is pruned for good; result identity does not depend
// on visit order, only on the candidate set, which this generator shares with
// the exhaustive walker.
func (s *search) runFrontier(sts []subtree, ws *searchState, dest *topK, shared *minBound) {
	l, hw, cm, obj := &s.l, &s.hw, s.cm, s.cfg.Objective
	subs, groups, heap := ws.subs[:0], ws.groups[:0], ws.heap[:0]
	cots, cps := ws.cots[:0], ws.cps[:0]
	for si := range sts {
		st := &sts[si]
		// Each buffer need is checked at the level that decides it (the
		// level-wise checks of package mapping): the rotating weight chunk
		// per chiplet tile here, the rotating activation chunk per planar
		// pair below, so no cell is popped for a need its group fixed.
		base := st.base()
		c0 := len(cots)
		cots = s.chipletTiles(cots, st, base)
		// Full slice expressions keep each subtree's and group's range
		// from growing into its neighbour's.
		sub := bfSubtree{base: base, cots: cots[c0:len(cots):len(cots)]}
		subs = append(subs, sub)
		if len(sub.cots) == 0 {
			continue
		}
		ws.pairs = planarPairs(ws.pairs[:0], st.hop, st.wop)
		for _, pp := range ws.pairs {
			hot, wot := pp[0], pp[1]
			if st.cs.pattern.Rows > hot || st.cs.pattern.Cols > wot {
				continue
			}
			base.HOt, base.WOt = hot, wot
			if !base.PlanarTileFits(l, hw) {
				continue
			}
			g := bfGroup{st: int32(si), hot: hot, wot: wot,
				hs: ceilDiv(hot, st.cs.pattern.Rows), ws: ceilDiv(wot, st.cs.pattern.Cols)}
			p0 := len(cps)
			cps = coreTilePairs(cps, l, hw, g.hs, g.ws)
			if len(cps) == p0 {
				continue
			}
			g.cps = cps[p0:len(cps):len(cps)]
			groups = append(groups, g)
			heap = heapPush(heap, bfNode{bound: s.groupBound(st, sub.cots, &g, g.cps), group: int32(len(groups) - 1), cot: -1, cp: -1})
		}
	}

	for len(heap) > 0 {
		var n bfNode
		n, heap = heapPop(heap)
		ws.tally.popped++
		thresh := min(dest.worst(), shared.load())
		if n.bound > thresh {
			// The frontier's minimum exceeds the incumbent threshold, so
			// every remaining candidate bounds at least as high. Probes
			// already floored resolve as bound-pruned; unrefined groups,
			// subgroups and cells (nvar 0) never enter the funnel at all.
			ws.tally.boundPruned += int64(n.nvar)
			for _, r := range heap {
				ws.tally.boundPruned += int64(r.nvar)
			}
			break
		}
		g := &groups[n.group]
		st, sub := &sts[g.st], &subs[g.st]
		if n.cot < 0 {
			// Refine the group into one subgroup per chiplet tile: the
			// single-tile bound makes the channel-product terms exact.
			for i := range sub.cots {
				heap = heapPush(heap, bfNode{
					bound: s.groupBound(st, sub.cots[i:i+1], g, g.cps),
					group: n.group, cot: int32(i), cp: -1,
				})
			}
			continue
		}
		if n.cp < 0 {
			// Refine the subgroup into one cell per core tile: with both
			// tile axes fixed the singleton-list bound has every term exact,
			// so a cell's bound is essentially its member's floor — computed
			// through the cheap group assembly, without the feasibility
			// check and TrafficFloor walk the real floor pays.
			for j := range g.cps {
				heap = heapPush(heap, bfNode{
					bound: s.groupBound(st, sub.cots[n.cot:n.cot+1], g, g.cps[j:j+1]),
					group: n.group, cot: n.cot, cp: int32(j),
				})
			}
			continue
		}
		probe := sub.base
		probe.COt, probe.HOt, probe.WOt = sub.cots[n.cot], g.hot, g.wot
		probe.HOc, probe.WOc = g.cps[n.cp][0], g.cps[n.cp][1]
		if n.nvar == 0 {
			// Materialize the cell: floor its probe exactly once (the floor
			// is temporal-invariant and covers every variant).
			if !probe.Feasible(l, hw) {
				ws.tally.infeasible++
				if s.rejected != nil {
					s.rejected(probe)
				}
				continue
			}
			sh := probe.Shape(l, hw)
			nvar := temporalVariants(&sh)
			ws.tally.floors++
			ws.tally.generated += nvar
			fl := lowerBound(l, hw, cm, &probe, &sh, obj, s.d2dNum, s.d2dDen)
			if fl > thresh {
				ws.tally.boundPruned += nvar
				continue
			}
			n.bound, n.nvar = fl, int32(nvar)
			heap = heapPush(heap, n)
			continue
		}
		// Evaluate the probe's temporal variants through the staged pipeline.
		sh := probe.Shape(l, hw)
		var tr, phys c3p.Traffic
		for _, pt := range temporalChoices(sh.C1, sh.H1*sh.W1) {
			for _, ct := range temporalChoices(sh.C2, sh.H2*sh.W2) {
				m := probe
				m.PackageTemporal, m.ChipletTemporal = pt, ct
				c3p.AnalyzeInto(&ws.a, &ws.sc, l, hw, &m)
				ws.a.TrafficInto(&tr, hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes)
				// Energy prices the physical link bytes (detours included);
				// the simulator consumes the logical record — the degraded
				// ring internalizes the hop multipliers on the time side.
				phys = tr
				phys.ScaleD2D(s.d2dNum, s.d2dDen)
				br := energy.Price(&phys, hw, cm)
				// Stage prune: the exact energy is known before the
				// simulator runs; for EDP, pair it with the compute-bound
				// runtime — still a lower bound on the final score.
				stage := br.Total()
				if obj == MinEDP {
					stage *= hardware.Seconds(sim.ComputeBoundCyclesOf(l, hw, &m, &sh))
				}
				thresh = min(dest.worst(), shared.load())
				if stage > thresh {
					ws.tally.stagePruned++
					continue
				}
				res, err := sim.SimulateTrafficOn(s.topo, s.xbar, &ws.a, &tr)
				if err != nil {
					ws.tally.stagePruned++
					continue
				}
				ws.tally.evaluated++
				o := Option{Analysis: &ws.a, Energy: br, Cycles: res.Cycles}
				sc := score(o, obj)
				if dest.wouldAccept(sc, &m) {
					// Detach the analysis from the worker scratch only for
					// the few candidates that actually enter the top-K.
					o.Analysis = ws.a.Clone()
					dest.add(o, sc)
					if w := dest.worst(); !math.IsInf(w, 1) {
						shared.update(w)
					}
				}
			}
		}
	}
	ws.subs, ws.groups, ws.heap = subs[:0], groups[:0], heap[:0]
	ws.cots, ws.cps = cots[:0], cps[:0]
}

// strided returns every workers-th subtree starting at w — the fixed shard a
// worker's frontier spans. Static striding (vs dynamic dispatch) is fine
// because frontiers terminate early anyway; which worker owns which subtree
// never affects the result.
func strided(sts []subtree, w, workers int) []subtree {
	if workers <= 1 {
		return sts
	}
	out := make([]subtree, 0, (len(sts)+workers-1)/workers)
	for i := w; i < len(sts); i += workers {
		out = append(out, sts[i])
	}
	return out
}

// resolveWorkers mirrors par's worker resolution so per-worker state can be
// sized before dispatch.
func resolveWorkers(cfg, n int) int {
	if cfg <= 0 {
		cfg = runtime.GOMAXPROCS(0)
	}
	return min(cfg, n)
}

// rethrowPanics re-raises a worker panic that par converted into an error, so
// a panicking cost model surfaces to SearchAll's caller exactly as it does on
// the serial path (the engine's recovery then wraps it into its structured
// PanicError). Any other error is impossible: the context is never cancelled
// and worker bodies return nil.
func rethrowPanics(err error) {
	var pe *par.PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
}

// SearchAll evaluates the mapping space and returns the best KeepTop options
// sorted by the objective (ties broken by mapping.Compare). It is
// result-identical to SearchExhaustive — enforced by randomized equivalence
// tests — but orders the space best-first under admissible lower bounds,
// stages the evaluation pipeline so the simulator only runs for survivors,
// shards the space across Workers goroutines with a shared incumbent bound,
// and reuses per-worker scratch so the steady-state candidate path does not
// allocate.
func SearchAll(l workload.Layer, hw hardware.Config, cm *hardware.CostModel, cfg Config) []Option {
	if cfg.KeepTop <= 0 {
		cfg.KeepTop = 8
	}
	// The exhaustive path rejects invalid layers, hardware and interconnect
	// geometries per candidate; the pruned path rejects them once up front
	// (Feasible and the hoisted topology/crossbar models assume validity).
	if l.Validate() != nil || hw.Validate() != nil {
		return nil
	}
	srch, err := newSearch(l, hw, cm, cfg)
	if err != nil {
		return nil
	}
	sts := subtrees(l, hw, cfg)
	if len(sts) == 0 {
		return nil
	}
	if !mapping.StreamingWL1Fits(&l, &hw) {
		// Every mapping of the layer streams the same weight chunk through
		// W-L1, so none fits: return the empty top-K a full search finds.
		return newTopK(cfg.KeepTop, cfg.Objective).opts
	}
	workers := resolveWorkers(cfg.Workers, len(sts))
	tops := make([]*topK, workers)
	for i := range tops {
		tops[i] = newTopK(cfg.KeepTop, cfg.Objective)
	}
	shared := newMinBound()
	// One frontier per worker, spanning the worker's strided share of the
	// subtrees: the best-first order then holds across subtree boundaries,
	// so a worker's weak subtrees die as unexpanded group nodes instead of
	// each warming up its own frontier.
	t, err := runWorkers(workers, func(ws *searchState, w, i int) {
		srch.runFrontier(strided(sts, i, workers), ws, tops[w], shared)
	})
	if err != nil {
		rethrowPanics(err)
		return nil
	}
	cfg.Counters.flush(t)

	// Deterministic merge: every global top-K candidate survives in its
	// worker's local top-K (fewer than K candidates beat it anywhere, so in
	// particular within its own shard), and the (score, Compare) order is a
	// strict total order over the distinct candidate mappings — so re-ranking
	// the union reproduces the exhaustive result regardless of how the work
	// was split.
	if workers == 1 {
		return tops[0].opts
	}
	merged := newTopK(cfg.KeepTop, cfg.Objective)
	for _, t := range tops {
		for j, o := range t.opts {
			merged.add(o, t.scores[j])
		}
	}
	return merged.opts
}

// comboIndex maps a (package, chiplet) spatial pair to a dense index for
// BestPerSpatialCombo's per-combo incumbents.
func comboIndex(pkg, chip mapping.Spatial) int {
	p := 0
	if pkg == mapping.SpatialP {
		p = 1
	}
	c := 2 // SpatialH
	switch chip {
	case mapping.SpatialC:
		c = 0
	case mapping.SpatialP:
		c = 1
	}
	return p*3 + c
}

const numCombos = 6

// BestPerSpatialCombo returns the best (minimum-energy) option for each
// (package, chiplet) spatial pair — the bars of Fig 11. Combos with no valid
// mapping are omitted (e.g. (C,C) on layers with too few output channels).
// Each combo keeps its own incumbent bound, so the pruning a strong combo
// enjoys never starves a weak combo of its bar.
func BestPerSpatialCombo(l workload.Layer, hw hardware.Config, cm *hardware.CostModel) map[string]Option {
	best := make(map[string]Option)
	cfg := Config{Objective: MinEnergy, KeepTop: 1}
	if l.Validate() != nil || hw.Validate() != nil {
		return best
	}
	// The topology's hop ratio keeps the bound admissible off-ring too: a
	// healthy ring's (n, n) scale is the exact identity the old hardcoded
	// (1, 1) was, while a mesh's multi-hop rotation prices its detours.
	srch, err := newSearch(l, hw, cm, cfg)
	if err != nil {
		return best
	}
	sts := subtrees(l, hw, cfg)
	if len(sts) == 0 || !mapping.StreamingWL1Fits(&l, &hw) {
		return best
	}
	workers := resolveWorkers(0, len(sts))
	tops := make([][numCombos]*topK, workers)
	for i := range tops {
		for c := range tops[i] {
			tops[i][c] = newTopK(1, MinEnergy)
		}
	}
	var bounds [numCombos]*minBound
	for c := range bounds {
		bounds[c] = newMinBound()
	}
	// Each combo keeps its own incumbent and destination, so a worker runs
	// one frontier per combo over its strided share: within a combo the
	// frontier spans subtree boundaries, across combos nothing is shared.
	_, err = runWorkers(workers, func(ws *searchState, w, i int) {
		var byCombo [numCombos][]subtree
		for _, st := range strided(sts, i, workers) {
			c := comboIndex(st.ps.kind, st.cs.kind)
			byCombo[c] = append(byCombo[c], st)
		}
		for c, group := range byCombo {
			if len(group) > 0 {
				srch.runFrontier(group, ws, tops[w][c], bounds[c])
			}
		}
	})
	if err != nil {
		rethrowPanics(err)
		return best
	}
	for c := 0; c < numCombos; c++ {
		merged := newTopK(1, MinEnergy)
		for w := range tops {
			t := tops[w][c]
			for j, o := range t.opts {
				merged.add(o, t.scores[j])
			}
		}
		if len(merged.opts) > 0 {
			o := merged.opts[0]
			best[o.SpatialCombo()] = o
		}
	}
	return best
}
