package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"nnbaton/internal/c3p"
	"nnbaton/internal/dse"
	"nnbaton/internal/energy"
	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/obs"
	"nnbaton/internal/sim"
	"nnbaton/internal/workload"
)

// study is everything a sweep needs besides its evaluator.
type study struct {
	model    workload.Model
	space    dse.Space
	cm       *hardware.CostModel
	computes []hardware.Config
}

// loadStudy is the in-process set-up: load the model, build the Table II
// space and its compute allocations, and fit the cost model.
func loadStudy(sp spec) (study, error) {
	m, err := workload.Load(sp.model, sp.res)
	if err != nil {
		return study{}, err
	}
	cm, err := hardware.NewCostModel()
	if err != nil {
		return study{}, err
	}
	space := dse.TableII()
	return study{model: m, space: space, cm: cm, computes: space.ComputeConfigs(totalMACs)}, nil
}

// setupExplore times setupReps set-ups and returns the last one.
func setupExplore(sp spec) (study, []float64, error) {
	var st study
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if st, err = loadStudy(sp); err != nil {
			return study{}, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, times, nil
}

// explore runs one sweep and counts its operations: a compute
// configuration is attempted, and failed when it lands in Failed.
func (r *run) explore(ctx context.Context, st study, eng *engine.Evaluator) (dse.ExploreResult, time.Duration, error) {
	t0 := time.Now()
	res, err := dse.Explore(ctx, st.model, st.space, totalMACs, r.area, eng)
	d := time.Since(t0)
	r.attempted += len(st.computes)
	r.failed += len(res.Failed)
	return res, d, err
}

// timeExplore is the timed explore workload: per iteration, one sweep on a
// fresh evaluator (sweep_s) and the identical sweep again on the same
// evaluator, every search now a memo hit (warm_sweep_s).
func timeExplore(ctx context.Context, r *run) error {
	st, setups, err := setupExplore(r.spec)
	if err != nil {
		return err
	}
	s := series{}
	var first [32]byte // digest: holding the result would grow later iterations' heaps
	for i := 0; i < r.iters; i++ {
		debug.FreeOSMemory()
		u := startUsage()
		eng := engine.NewWithWorkers(st.cm, engineWorkers)
		cold, coldT, err := r.explore(ctx, st, eng)
		if err != nil {
			return err
		}
		warm, warmT, err := r.explore(ctx, st, eng)
		if err != nil {
			return err
		}
		cpu, alloc, rss := u.since()
		s.record(coldT, warmT, cpu, alloc, rss)
		if i == 0 {
			first = digest(cold)
			r.checkExplore(ctx, st, cold, eng)
		} else {
			r.check(digest(cold) == first, "iteration %d: sweep differs from the first", i)
		}
		r.check(digest(warm) == first, "iteration %d: warm sweep differs from the first", i)
	}
	r.finishEndToEnd(s, setups)
	return nil
}

// traceExplore is the traced explore workload: an untraced sweep that also
// absorbs the process's first-sweep start-up cost, the sweep with an obs
// registry attached the way the CLI's -metrics flag attaches it, an untraced
// sweep to compare it with, then a timed replay of the sweep's re-pricing.
func traceExplore(ctx context.Context, r *run) error {
	st, _, err := setupExplore(r.spec)
	if err != nil {
		return err
	}
	untraced := func() (dse.ExploreResult, time.Duration, error) {
		debug.FreeOSMemory()
		return r.explore(ctx, st, engine.NewWithWorkers(st.cm, engineWorkers))
	}
	plain, _, err := untraced()
	if err != nil {
		return err
	}
	debug.FreeOSMemory()
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	eng := engine.NewObserved(st.cm, engineWorkers, reg, nil)
	res, traced, err := r.explore(ctx, st, eng)
	obs.SetDefault(nil)
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	again, plainT, err := untraced()
	if err != nil {
		return err
	}
	r.check(eng.Stats().Lookups == snap.Counters["engine.lookups"], "engine.Stats and the registry disagree on lookups")
	r.check(digest(plain) == digest(res) && digest(again) == digest(res), "traced sweep differs from the untraced ones")
	r.checkExplore(ctx, st, res, eng)

	r.set("obs.trace_overhead_s", (traced - plainT).Seconds(), "s")
	r.engineMetrics(snap)
	r.storeMetrics(snap, 0, 0)
	r.fleetMetrics(fleetTrace{})
	r.set("dse.swept_points", float64(res.Swept), "count")
	r.set("dse.valid_points", float64(len(res.Points)), "count")
	return r.replayMetrics(ctx, st, eng, res.Points)
}

// digest fingerprints a sweep's whole result. %v prints each float in the
// shortest form that reads back exactly, so equal digests mean equal results.
func digest(res dse.ExploreResult) [32]byte {
	h := sha256.New()
	fmt.Fprint(h, res.Swept, res.Points, res.Failed, res.Best, res.HasBest)
	return [32]byte(h.Sum(nil))
}

// checkExplore verifies one sweep's result: nothing failed, the points are
// consistent (checkPoints, with eng's memo supplying the pools), and Best is a minimum-EDP point among those that
// meet the area limit. Nothing here depends on how ties are broken.
func (r *run) checkExplore(ctx context.Context, st study, res dse.ExploreResult, eng *engine.Evaluator) {
	r.check(len(res.Failed) == 0, "%d compute configurations failed, first: %v", len(res.Failed), res.Failed)
	r.checkPoints(ctx, st, res.Points, res.Swept, eng)
	minEDP, meets := 0.0, false
	for _, p := range res.Points {
		if p.MeetsArea && (!meets || p.EDP() < minEDP) {
			minEDP, meets = p.EDP(), true
		}
	}
	r.check(res.HasBest == meets, "HasBest = %v, but a point meeting %.1f mm² exists = %v", res.HasBest, r.area, meets)
	if meets {
		r.check(res.Best.MeetsArea && res.Best.EDP() == minEDP,
			"Best %s has EDP %g, the minimum among points meeting the area limit is %g", res.Best.HW.Tuple(), res.Best.EDP(), minEDP)
	}
}

// anchorHW is the memory allocation the sweep's anchor search uses, placed
// on one compute configuration.
func anchorHW(comp hardware.Config, ol1PerLane, al1, wl1, al2 int) hardware.Config {
	hw := comp
	hw.OL1Bytes = ol1PerLane * comp.Lanes
	hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes = al1, wl1, al2
	hw.OL2Bytes = al2 / 2
	return hw
}

// anchors are the allocations at which Explore harvests candidate mappings:
// maximum, minimum and proportional memory, in that order.
func anchors(space dse.Space, comp hardware.Config) []hardware.Config {
	last := func(xs []int) int { return xs[len(xs)-1] }
	return []hardware.Config{
		anchorHW(comp, last(space.OL1PerLane), last(space.AL1), last(space.WL1), last(space.AL2)),
		anchorHW(comp, space.OL1PerLane[0], space.AL1[0], space.WL1[0], space.AL2[0]),
		comp.WithProportionalMemory(hardware.DefaultProportion()),
	}
}

const (
	computeSamples = 4 // compute configurations whose points are re-priced independently
	pointSamples   = 6 // memory points per sampled configuration, besides its two anchors
)

// checkPoints verifies a sweep's points:
//   - Swept is every compute configuration times every memory point;
//   - each point maps all of the model's layers;
//   - at the minimum and maximum anchors and at random memory points of
//     sampled compute configurations, the point is in the sweep exactly when
//     every layer has a usable pooled candidate, and its energy equals an
//     independent pricing of the same pool: each candidate analysed from
//     scratch at the point (c3p.Analyze) instead of through TrafficAt;
//   - at those anchors the energy is at most engine.EvalModel's optimum.
//
// The anchor energy may be below the search optimum, so equality is not
// required: the search enumerates tilings that depend on the buffer sizes
// (see mapper.InSearchSpace), and a mapping pooled at another anchor can be
// valid and cheaper yet outside the anchor's own enumeration. eng supplies
// the pools; the samples are drawn from the seed.
func (r *run) checkPoints(ctx context.Context, st study, points []dse.Point, swept int, eng *engine.Evaluator) {
	want := len(st.computes) * st.space.MemoryPoints()
	r.check(swept == want, "swept %d points, want %d compute configs × %d memory points = %d",
		swept, len(st.computes), st.space.MemoryPoints(), want)
	byHW := make(map[hardware.Config]dse.Point, len(points))
	for _, p := range points {
		r.check(p.MappedLayers == len(st.model.Layers) && p.SkippedLayers == 0 && p.Err == "",
			"point %s maps %d of %d layers (%d skipped, err %q)", p.HW, p.MappedLayers, len(st.model.Layers), p.SkippedLayers, p.Err)
		byHW[p.HW] = p
	}
	r.check(len(points) > 0, "no valid points")

	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	sp := st.space
	priced, equal, below := 0, 0, 0
	for _, ci := range rng.Perm(len(st.computes))[:min(computeSamples, len(st.computes))] {
		comp := st.computes[ci]
		pool, err := harvest(ctx, st, eng, comp)
		if err != nil {
			r.check(false, "harvest %s: %v", comp.Tuple(), err)
			continue
		}
		a := anchors(sp, comp)
		sample := a[:2:2]
		for i := 0; i < pointSamples; i++ {
			k := rng.Intn(sp.MemoryPoints())
			n1, n2, n3 := len(sp.AL1)*len(sp.WL1)*len(sp.AL2), len(sp.WL1)*len(sp.AL2), len(sp.AL2)
			sample = append(sample, anchorHW(comp, sp.OL1PerLane[k/n1], sp.AL1[k%n1/n2], sp.WL1[k%n2/n3], sp.AL2[k%n3]))
		}
		for i, hw := range sample {
			p, inSweep := byHW[hw]
			e, ok := freshPrice(st, hw, pool)
			ok = ok && hw.AL2Bytes >= hw.AL1Bytes
			r.check(inSweep == ok, "point %s: in sweep %v, independently priceable %v", hw, inSweep, ok)
			if !inSweep || !ok {
				continue
			}
			priced++
			r.check(p.Energy.Total() == e.Total(), "point %s: sweep energy %.12g pJ, independent pricing %.12g pJ",
				hw, p.Energy.Total(), e.Total())
			if i >= 2 {
				continue
			}
			opt, err := eng.EvalModel(ctx, st.model, hw, mapper.Config{})
			r.check(err == nil && len(opt.Skipped) == 0, "anchor %s is in the sweep but EvalModel cannot map it (%v)", hw, err)
			switch {
			case p.Energy.Total() == opt.Energy.Total():
				equal++
			case p.Energy.Total() < opt.Energy.Total():
				below++
			default:
				r.check(false, "anchor %s: sweep energy %.12g pJ above the search optimum %.12g pJ", hw, p.Energy.Total(), opt.Energy.Total())
			}
		}
	}
	fmt.Printf("re-priced %d sampled points independently; %d anchors equal the search optimum, %d lie below it\n",
		priced, equal, below)
}

// freshPrice prices one memory point from a candidate pool the slow way:
// each candidate analysed from scratch at the point, the same selection
// rules as the sweep. ok is false when some layer has no usable candidate.
func freshPrice(st study, hw hardware.Config, pool [][]*c3p.Analysis) (total energy.Breakdown, ok bool) {
	for li, l := range st.model.Layers {
		bestE := -1.0
		var bestBr energy.Breakdown
		for _, cand := range pool[li] {
			if cand.Map.Validate(l, hw) != nil {
				continue
			}
			a, err := c3p.Analyze(l, hw, cand.Map)
			if err != nil {
				continue
			}
			br := energy.FromTraffic(a.Traffic(), hw, st.cm)
			if bestE >= 0 && br.Total() >= bestE {
				continue
			}
			if _, err := sim.Simulate(a); err != nil {
				continue
			}
			bestE, bestBr = br.Total(), br
		}
		if bestE < 0 {
			return total, false
		}
		total = total.Add(bestBr)
	}
	return total, true
}
