package main

import (
	"context"
	"sync"
	"time"

	"nnbaton/internal/c3p"
	"nnbaton/internal/dse"
	"nnbaton/internal/energy"
	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/sim"
)

// calls tallies one re-pricing stage: how often it ran and for how long.
type calls struct {
	n int64
	d time.Duration
}

func (c *calls) add(t0 time.Time) {
	c.d += time.Since(t0)
	c.n++
}

// repricing tallies the four stages of one memory-point re-pricing.
type repricing struct {
	validate, traffic, energy, sim calls
	swept                          int
}

func (p *repricing) merge(o repricing) {
	for _, pair := range [][2]*calls{{&p.validate, &o.validate}, {&p.traffic, &o.traffic},
		{&p.energy, &o.energy}, {&p.sim, &o.sim}} {
		pair[0].n += pair[1].n
		pair[0].d += pair[1].d
	}
	p.swept += o.swept
}

// harvest pools, per layer, the top-4 mappings the search finds at each valid
// anchor of a compute configuration, in the order dse.Explore pools them.
func harvest(ctx context.Context, st study, eng *engine.Evaluator, comp hardware.Config) ([][]*c3p.Analysis, error) {
	pool := make([][]*c3p.Analysis, len(st.model.Layers))
	for _, anchor := range anchors(st.space, comp) {
		if anchor.Validate() != nil {
			continue
		}
		for li, l := range st.model.Layers {
			opts, err := eng.SearchAll(ctx, l, anchor, mapper.Config{KeepTop: 4})
			if err != nil {
				return nil, err
			}
			for _, o := range opts {
				pool[li] = append(pool[li], o.Analysis)
			}
		}
	}
	return pool, nil
}

// replayCompute re-prices one compute configuration the way dse.Explore
// does: harvest the top-4 mappings of each layer at the anchors, then at
// every memory point keep, per layer, the lowest-energy candidate that
// validates and simulates. Each stage is timed around its public call.
func replayCompute(ctx context.Context, st study, eng *engine.Evaluator, comp hardware.Config, area float64) ([]dse.Point, repricing, error) {
	var tally repricing
	pool, err := harvest(ctx, st, eng, comp)
	if err != nil {
		return nil, tally, err
	}
	var points []dse.Point
	sp := st.space
	for _, ol1 := range sp.OL1PerLane {
		for _, al1 := range sp.AL1 {
			for _, wl1 := range sp.WL1 {
				for _, al2 := range sp.AL2 {
					tally.swept++
					if al2 < al1 {
						continue
					}
					if pt, ok := reprice(st, anchorHW(comp, ol1, al1, wl1, al2), pool, area, &tally); ok {
						points = append(points, pt)
					}
				}
			}
		}
	}
	return points, tally, nil
}

// reprice prices one memory point from the candidate pool.
func reprice(st study, hw hardware.Config, pool [][]*c3p.Analysis, area float64, tally *repricing) (dse.Point, bool) {
	pt := dse.Point{HW: hw, ChipletAreaMM2: st.cm.ChipletAreaMM2(hw)}
	pt.MeetsArea = area <= 0 || pt.ChipletAreaMM2 <= area
	for li, l := range st.model.Layers {
		bestE := -1.0
		var bestBr energy.Breakdown
		var bestCycles int64
		for _, a := range pool[li] {
			t0 := time.Now()
			err := a.Map.Validate(l, hw)
			tally.validate.add(t0)
			if err != nil {
				continue
			}
			t0 = time.Now()
			tr := a.TrafficAt(hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes)
			tally.traffic.add(t0)
			t0 = time.Now()
			br := energy.FromTraffic(tr, hw, st.cm)
			tally.energy.add(t0)
			if bestE >= 0 && br.Total() >= bestE {
				continue
			}
			t0 = time.Now()
			res, err := sim.SimulateTraffic(a, tr)
			tally.sim.add(t0)
			if err != nil {
				continue
			}
			bestE, bestBr, bestCycles = br.Total(), br, res.Cycles
		}
		if bestE < 0 {
			pt.SkippedLayers++
			continue
		}
		pt.Energy = pt.Energy.Add(bestBr)
		pt.Seconds += hardware.Seconds(bestCycles)
		pt.MappedLayers++
	}
	return pt, pt.MappedLayers == len(st.model.Layers)
}

// replayMetrics replays the re-pricing of a whole sweep on eng's warm memo,
// requires every replayed point to equal the program's (want), and reports
// the per-stage call counts and times.
func (r *run) replayMetrics(ctx context.Context, st study, eng *engine.Evaluator, want []dse.Point) error {
	var (
		mu    sync.Mutex
		tally repricing
		got   = make(map[hardware.Config]dse.Point, len(want))
	)
	err := engine.ParallelFor(ctx, len(st.computes), engineWorkers, func(i int) error {
		points, t, err := replayCompute(ctx, st, eng, st.computes[i], r.area)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		tally.merge(t)
		for _, p := range points {
			got[p.HW] = p
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.check(len(got) == len(want), "replay found %d valid points, the program %d", len(got), len(want))
	mismatched := 0
	for _, p := range want {
		if got[p.HW] != p {
			mismatched++
		}
	}
	r.check(mismatched == 0, "replay differs from the program at %d of %d points", mismatched, len(want))
	r.check(tally.swept == len(st.computes)*st.space.MemoryPoints(), "replay swept %d points", tally.swept)

	for _, s := range []struct {
		name string
		c    calls
	}{{"mapping.validate", tally.validate}, {"c3p.traffic_at", tally.traffic},
		{"energy.from_traffic", tally.energy}, {"sim.simulate", tally.sim}} {
		r.set(s.name+"_calls", float64(s.c.n), "count")
		r.set(s.name+"_s", s.c.d.Seconds(), "s")
	}
	r.set("dse.sim_reach_frac", float64(tally.sim.n)/float64(max(tally.traffic.n, 1)), "ratio")
	return nil
}
