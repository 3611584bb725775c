package mapper

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/noc"
	"nnbaton/internal/obs"
	"nnbaton/internal/par"
	"nnbaton/internal/workload"
)

// TestGroupBoundAdmissible pins the property the best-first frontier is built
// on: for every candidate group, the group bound is ≤ the exact per-probe
// lower bound of every member probe (and transitively ≤ every member's true
// score, which lowerBound's own admissibility covers). Randomized over layers,
// hardware points, objectives and fault masks.
func TestGroupBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	cm := hardware.MustCostModel()
	layers := uniqueZooLayers(64)
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		l := layers[rng.Intn(len(layers))]
		hw := randomHW(rng)
		if hw.Validate() != nil {
			continue
		}
		cfg := Config{
			Objective: []Objective{MinEnergy, MinEDP}[rng.Intn(2)],
			KeepTop:   8,
		}
		if rng.Intn(3) == 0 {
			cfg.Fault = randomFault(rng, hw.Chiplets)
		}
		topo, _, err := noc.NewInterconnect(hw, cfg.Fault)
		if err != nil {
			continue
		}
		num, den := topo.D2DScale()
		srch := &search{l: l, hw: hw, cm: cm, cfg: cfg, d2dNum: num, d2dDen: den}
		ctx := fmt.Sprintf("trial %d: %s/%s on %s obj=%v fault=%s",
			trial, l.Model, l.Name, hw.Tuple(), cfg.Objective, cfg.Fault)
		for _, st := range subtrees(l, hw, cfg) {
			// The frontier's tile list: the group bound is taken over the
			// tiles that survive the rotating-chunk check.
			base := st.base()
			cots := srch.chipletTiles(&st, base)
			if len(cots) == 0 {
				continue
			}
			for _, pp := range planarPairs(st.hop, st.wop) {
				hot, wot := pp[0], pp[1]
				if st.cs.pattern.Rows > hot || st.cs.pattern.Cols > wot {
					continue
				}
				base.HOt, base.WOt = hot, wot
				if !base.PlanarTileFits(&l, &hw) {
					continue
				}
				g := bfGroup{hot: hot, wot: wot,
					hs: ceilDiv(hot, st.cs.pattern.Rows), ws: ceilDiv(wot, st.cs.pattern.Cols)}
				g.cps = coreTilePairs(&l, &hw, g.hs, g.ws)
				if len(g.cps) == 0 {
					continue
				}
				gb := srch.groupBound(&st, cots, &g, g.cps)
				for ci, cot := range cots {
					sub := srch.groupBound(&st, cots[ci:ci+1], &g, g.cps)
					for pi, cp := range g.cps {
						probe := base
						probe.COt, probe.HOc, probe.WOc = cot, cp[0], cp[1]
						if !probe.Feasible(&l, &hw) {
							continue
						}
						sh := probe.Shape(&l, &hw)
						fl := lowerBound(&l, &hw, cm, &probe, &sh, cfg.Objective, num, den)
						if gb > fl {
							t.Fatalf("%s: group bound %.6g > member floor %.6g for %+v",
								ctx, gb, fl, probe)
						}
						if sub > fl {
							t.Fatalf("%s: subgroup bound %.6g > member floor %.6g for %+v",
								ctx, sub, fl, probe)
						}
						// Cell level: both tile axes fixed — the singleton
						// bound the frontier prices one probe with.
						if cell := srch.groupBound(&st, cots[ci:ci+1], &g, g.cps[pi:pi+1]); cell > fl {
							t.Fatalf("%s: cell bound %.6g > member floor %.6g for %+v",
								ctx, cell, fl, probe)
						}
					}
				}
			}
		}
	}
}

// fig15Anchors returns the memory allocations at which the Fig 15 sweep
// searches a compute tuple (dse.anchorConfigs over Table II): the maximum,
// the minimum and the proportional allocation.
func fig15Anchors(comp hardware.Config) []hardware.Config {
	mk := func(ol1PerLane, al1KB, wl1KB, al2KB int) hardware.Config {
		hw := comp
		hw.OL1Bytes = ol1PerLane * comp.Lanes
		hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes = al1KB*1024, wl1KB*1024, al2KB*1024
		hw.OL2Bytes = hw.AL2Bytes / 2
		return hw
	}
	return []hardware.Config{
		mk(144, 128, 256, 256),
		mk(48, 1, 2, 32),
		comp.WithProportionalMemory(hardware.DefaultProportion()),
	}
}

// TestFrontierRejectsAtDecidingLevel pins the frontier's level-wise
// feasibility: no popped cell fails a buffer need that a coarser level
// decides — the streaming W-L1 chunk per search, the rotating weight chunk
// per chiplet tile, the rotating activation chunk per planar pair. It runs
// the model zoo at the three Fig 15 anchors of several compute tuples. At
// the minimum anchor of a 16-lane, 16-wide tuple the streaming W-L1 need of
// every 3×3 layer fails, and there the search must pop nothing and return
// the same empty result the unchecked frontier finds.
func TestFrontierRejectsAtDecidingLevel(t *testing.T) {
	cm := hardware.MustCostModel()
	tuples := [][4]int{{4, 8, 8, 8}, {2, 8, 16, 16}, {8, 4, 8, 8}, {4, 4, 16, 8}, {1, 16, 8, 16}}
	res := 224
	if testing.Short() {
		tuples, res = tuples[:2], 64
	}
	layers := uniqueZooLayers(res)
	var cells, wl1Rejects int
	for _, tu := range tuples {
		comp := hardware.CaseStudy()
		comp.Chiplets, comp.Cores, comp.Lanes, comp.Vector = tu[0], tu[1], tu[2], tu[3]
		for _, hw := range fig15Anchors(comp) {
			if hw.Validate() != nil {
				continue
			}
			for _, l := range layers {
				ctx := fmt.Sprintf("%s/%s on %s (W-L1 %d B, A-L2 %d B)", l.Model, l.Name, hw.Tuple(), hw.WL1Bytes, hw.AL2Bytes)
				cfg := Config{KeepTop: 4}
				sts := subtrees(l, hw, cfg)
				topo, _, err := noc.NewInterconnect(hw, cfg.Fault)
				if err != nil || len(sts) == 0 {
					continue
				}
				num, den := topo.D2DScale()
				var mu sync.Mutex
				var rejected int64
				srch := &search{l: l, hw: hw, cm: cm, cfg: cfg, d2dNum: num, d2dDen: den,
					rejected: func(m mapping.Mapping) {
						mu.Lock()
						defer mu.Unlock()
						rejected++
						if !mapping.StreamingWL1Fits(&l, &hw) || !m.ChipletTileFits(&l, &hw) || !m.PlanarTileFits(&l, &hw) {
							t.Fatalf("%s: popped cell %+v fails a need its group decides", ctx, m)
						}
					}}
				var ws searchState
				ws.init(hw, cfg.Fault)
				unchecked := newTopK(cfg.KeepTop, cfg.Objective)
				if mapping.StreamingWL1Fits(&l, &hw) {
					srch.runFrontier(sts, &ws, unchecked, par.NewMinBound())
					if ws.tally.infeasible != rejected {
						t.Fatalf("%s: tally counts %d infeasible cells, hook saw %d", ctx, ws.tally.infeasible, rejected)
					}
					cells += int(ws.tally.popped)
					continue
				}
				// The per-search check: every probe of the frontier fails
				// the streaming W-L1 need, and SearchAll skips the frontier.
				wl1Rejects++
				srch.rejected = nil
				srch.runFrontier(sts, &ws, unchecked, par.NewMinBound())
				ctr := &Counters{HeapPopped: &obs.Counter{}, Infeasible: &obs.Counter{}}
				cfg.Counters = ctr
				got := SearchAll(l, hw, cm, cfg)
				if got == nil || len(got) != 0 || !reflect.DeepEqual(got, unchecked.opts) {
					t.Fatalf("%s: W-L1-rejected search returned %#v, the unchecked frontier %#v", ctx, got, unchecked.opts)
				}
				if p := ctr.HeapPopped.Value(); p != 0 {
					t.Fatalf("%s: W-L1-rejected search popped %d nodes", ctx, p)
				}
			}
		}
	}
	if wl1Rejects == 0 || cells == 0 {
		t.Fatalf("vacuous run: %d searches rejected by the streaming W-L1 need, %d frontier pops", wl1Rejects, cells)
	}
}

// tieHW builds a hardware point whose cost model degeneracies make distinct
// mappings score identically: with a single chiplet there is no D2D term, and
// symmetric planar splits of a square layer produce mirror-image mappings
// with equal traffic in every component.
func tieHW() hardware.Config {
	hw := hardware.CaseStudy()
	hw.Chiplets = 1
	hw.Cores = 4
	return hw
}

// TestSearchDeterministicOnTies is the determinism audit: on layers/configs
// where multiple candidates share the optimal cost, the best-first parallel
// search, the same search serially, and the exhaustive reference must return
// the identical mapping — the (score, mapping.Compare) tie-break, not
// evaluation order, decides. Square layers on a symmetric hardware point
// guarantee mirror-mapping ties exist; the test first asserts a tie is
// actually present so it cannot silently degrade into a non-tie check. Run
// under -race in CI (make race) to also catch ordering races.
func TestSearchDeterministicOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	cm := hardware.MustCostModel()
	hw := tieHW()
	trials := 10
	if testing.Short() {
		trials = 3
	}
	sawTie := false
	for trial := 0; trial < trials; trial++ {
		// Square geometry with symmetric channels: HO == WO and R == S make
		// (h, w)-mirrored mappings cost-identical.
		size := []int{7, 8, 14, 16, 28}[rng.Intn(5)]
		l := workload.Layer{
			Name: fmt.Sprintf("tie%d", trial), Model: "tie-audit",
			HO: size, WO: size, CO: 64, CI: 64, R: 3, S: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1,
		}
		if l.Validate() != nil {
			t.Fatalf("trial %d: invalid tie layer: %v", trial, l)
		}
		cfg := Config{Objective: MinEnergy, KeepTop: 8}
		want := SearchExhaustive(l, hw, cm, cfg)
		if len(want) == 0 {
			continue
		}
		bestScore := score(want[0], cfg.Objective)
		ties := 0
		for _, o := range want {
			if score(o, cfg.Objective) == bestScore {
				ties++
			}
		}
		if ties > 1 {
			sawTie = true
		}
		for _, w := range []int{1, 2, 8} {
			cfg.Workers = w
			got := SearchAll(l, hw, cm, cfg)
			ctx := fmt.Sprintf("trial %d size=%d workers=%d (ties=%d)", trial, size, w, ties)
			requireSameOptions(t, ctx, want, got, cfg.Objective)
		}
	}
	if !sawTie {
		t.Fatal("no trial produced a shared-optimal-cost tie; the audit tested nothing")
	}
}

// TestSearchSeedBoundIdentity pins the warm-start contract from the mapper
// side: seeding the incumbent with the exact k-th best score of the space —
// the strongest sound seed the engine can ever derive — must leave the result
// byte-identical to a cold search, while an unsound over-tight seed is
// rejected by construction only when it still dominates the k-th best. Also
// covers the degenerate seeds (0, +Inf, negative) the engine may pass.
func TestSearchSeedBoundIdentity(t *testing.T) {
	cm := hardware.MustCostModel()
	hw := hardware.CaseStudy()
	l := workload.ResNet50(224).Layers[10]
	cfg := Config{Objective: MinEnergy, KeepTop: 8}
	cold := SearchAll(l, hw, cm, cfg)
	if len(cold) != cfg.KeepTop {
		t.Fatalf("cold search returned %d options", len(cold))
	}
	kth := score(cold[len(cold)-1], cfg.Objective)
	for _, tc := range []struct {
		name string
		seed float64
	}{
		{"exact-kth", kth},
		{"above-kth", kth * 1.5},
		{"zero", 0},
		{"inf", math.Inf(1)},
		{"negative", -1},
	} {
		for _, workers := range []int{1, 4} {
			c := cfg
			c.SeedBound = tc.seed
			c.Workers = workers
			got := SearchAll(l, hw, cm, c)
			requireSameOptions(t, fmt.Sprintf("%s workers=%d", tc.name, workers), cold, got, cfg.Objective)
		}
	}
}
