package dse

import (
	"context"
	"fmt"
	"math"
	"testing"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/sim"
	"nnbaton/internal/workload"
)

// exploreComputeOracle is the straightforward form of exploreCompute, kept
// as its test oracle: harvest a pool per layer, then price every memory
// point on its own, running Mapping.Validate, TrafficAt, FromTraffic and the
// simulator for each layer's candidates.
func exploreComputeOracle(ctx context.Context, model workload.Model, space Space, comp hardware.Config,
	areaLimitMM2 float64, eng *engine.Evaluator) ([]Point, int, error) {
	pool := make([][]*c3p.Analysis, len(model.Layers))
	for _, anchor := range anchorConfigs(space, comp) {
		if anchor.Validate() != nil {
			continue
		}
		for li, l := range model.Layers {
			opts, err := eng.SearchAll(ctx, l, anchor, mapper.Config{KeepTop: 4})
			if err != nil {
				return nil, 0, err
			}
			for _, opt := range opts {
				pool[li] = append(pool[li], opt.Analysis)
			}
		}
	}
	var points []Point
	swept := 0
	for _, olPerLane := range space.OL1PerLane {
		for _, al1 := range space.AL1 {
			for _, wl1 := range space.WL1 {
				for _, al2 := range space.AL2 {
					swept++
					if al2 < al1 {
						continue
					}
					hw := comp
					hw.OL1Bytes = olPerLane * comp.Lanes
					hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes = al1, wl1, al2
					hw.OL2Bytes = al2 / 2
					if pt, ok := priceMemoryPoint(model, hw, pool, areaLimitMM2, eng.CostModel()); ok {
						points = append(points, pt)
					}
				}
			}
		}
	}
	return points, swept, nil
}

// priceMemoryPoint re-prices the pooled candidates of every layer at one
// memory allocation; ok is false when some layer has no valid candidate.
func priceMemoryPoint(model workload.Model, hw hardware.Config, pool [][]*c3p.Analysis,
	areaLimitMM2 float64, cm *hardware.CostModel) (Point, bool) {
	pt := Point{HW: hw, ChipletAreaMM2: cm.ChipletAreaMM2(hw)}
	pt.MeetsArea = areaLimitMM2 <= 0 || pt.ChipletAreaMM2 <= areaLimitMM2
	for li, l := range model.Layers {
		bestE := -1.0
		var bestBr energy.Breakdown
		var bestCycles int64
		for _, a := range pool[li] {
			if a.Map.Validate(l, hw) != nil {
				continue
			}
			tr := a.TrafficAt(hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes)
			br := energy.FromTraffic(tr, hw, cm)
			if bestE >= 0 && br.Total() >= bestE {
				continue
			}
			r, err := sim.SimulateTraffic(a, tr)
			if err != nil {
				continue
			}
			bestE, bestBr, bestCycles = br.Total(), br, r.Cycles
		}
		if bestE < 0 {
			pt.SkippedLayers++
			continue
		}
		pt.Energy = pt.Energy.Add(bestBr)
		pt.Seconds += hardware.Seconds(bestCycles)
		pt.MappedLayers++
	}
	return pt, pt.MappedLayers == len(model.Layers)
}

// pointBits renders every float of a point by its bit pattern, so equal
// renderings mean bit-identical prices.
func pointBits(p Point) string {
	e := p.Energy
	return fmt.Sprintf("%+v|%x %x %x %x %x %x %x %x|%x|%x|%v|%d|%d|%q", p.HW,
		math.Float64bits(e.DRAM), math.Float64bits(e.D2D), math.Float64bits(e.AL2), math.Float64bits(e.AL1),
		math.Float64bits(e.WL1), math.Float64bits(e.OL1), math.Float64bits(e.OL2), math.Float64bits(e.MAC),
		math.Float64bits(p.Seconds), math.Float64bits(p.ChipletAreaMM2), p.MeetsArea,
		p.MappedLayers, p.SkippedLayers, p.Err)
}

// TestExploreComputeMatchesOracle pins the staged re-pricing (per-shape
// pools, structural check once per candidate, traffic and simulation
// memoized across the O-L1 axis) to the per-point oracle over the full
// Table II memory space: the same points in the same order, the same Swept,
// and bit-identical energy and seconds.
func TestExploreComputeMatchesOracle(t *testing.T) {
	space := TableII()
	mesh := hardware.Config{Chiplets: 8, Cores: 4, Lanes: 8, Vector: 8, Topology: hardware.TopoMesh}
	cases := []struct {
		model workload.Model
		comp  hardware.Config
		area  float64
	}{
		{workload.ResNet50(224), hardware.Config{Chiplets: 1, Cores: 8, Lanes: 16, Vector: 16}, 0},
		{workload.ResNet50(224), hardware.Config{Chiplets: 4, Cores: 8, Lanes: 8, Vector: 8}, 0},
		{workload.DarkNet19(224), mesh, 2.0},
	}
	for _, tc := range cases {
		t.Run(tc.model.Name+"/"+tc.comp.Tuple(), func(t *testing.T) {
			eng := newEng()
			got, gotSwept, err := exploreCompute(ctx, tc.model, space, tc.comp, tc.area, eng)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSwept, err := exploreComputeOracle(ctx, tc.model, space, tc.comp, tc.area, eng)
			if err != nil {
				t.Fatal(err)
			}
			if gotSwept != wantSwept {
				t.Errorf("swept %d, oracle %d", gotSwept, wantSwept)
			}
			if len(got) != len(want) {
				t.Fatalf("%d points, oracle %d", len(got), len(want))
			}
			if len(want) == 0 {
				t.Fatal("no valid points; the comparison is vacuous")
			}
			for i := range want {
				if g, w := pointBits(got[i]), pointBits(want[i]); g != w {
					t.Fatalf("point %d differs:\n got %s\nwant %s", i, g, w)
				}
			}
		})
	}
}
