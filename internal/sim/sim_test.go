package sim

import (
	"strings"
	"testing"

	"nnbaton/internal/c3p"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/noc"
	"nnbaton/internal/workload"
)

func analyzed(t *testing.T, l workload.Layer, hw hardware.Config, m mapping.Mapping) *c3p.Analysis {
	t.Helper()
	a, err := c3p.Analyze(l, hw, m)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func simLayer() workload.Layer {
	return workload.Layer{Model: "t", Name: "conv", HO: 56, WO: 56, CO: 64, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
}

func simMapping() mapping.Mapping {
	return mapping.Mapping{
		PackageSpatial: mapping.SpatialC, PackageTemporal: mapping.ChannelPriority,
		ChipletSpatial: mapping.SpatialC, ChipletCSplit: 8, ChipletPattern: mapping.Pattern{Rows: 1, Cols: 1},
		ChipletTemporal: mapping.PlanePriority,
		HOt:             14, WOt: 14, COt: 16, HOc: 4, WOc: 4,
		Rotate: true,
	}
}

func TestSimulateBasics(t *testing.T) {
	a := analyzed(t, simLayer(), hardware.CaseStudy(), simMapping())
	r, err := Simulate(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.Seconds <= 0 {
		t.Fatalf("non-positive runtime: %+v", r)
	}
	// Runtime can never beat the compute bound.
	if r.Cycles < ComputeBoundCycles(a) {
		t.Errorf("cycles %d below compute bound %d", r.Cycles, ComputeBoundCycles(a))
	}
	if r.Cycles != r.ComputeCycles+r.StallCycles {
		t.Errorf("cycles %d != compute %d + stall %d", r.Cycles, r.ComputeCycles, r.StallCycles)
	}
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Errorf("utilization out of range: %f", r.Utilization)
	}
	if !strings.Contains(r.String(), "cycles") {
		t.Errorf("String = %q", r.String())
	}
	if hardware.Seconds(r.Cycles) != r.Seconds {
		t.Error("Seconds mismatch")
	}
}

func TestUnderUtilizationFromThinChannels(t *testing.T) {
	// A layer with CO=8 on a 4-chiplet, 8-core, 8-lane machine: only 2
	// channels per chiplet, 1 lane active out of 8 — utilization collapses
	// (§IV-D: "hardware with too high channel-wise parallelism is improper
	// for the thin layer").
	thin := workload.Layer{Model: "t", Name: "thin", HO: 56, WO: 56, CO: 8, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	m := simMapping()
	m.ChipletSpatial = mapping.SpatialP
	m.ChipletCSplit = 1
	m.ChipletPattern = mapping.Pattern{Rows: 2, Cols: 4}
	m.COt = 2
	hw := hardware.CaseStudy()
	rThin, err := Simulate(analyzed(t, thin, hw, m))
	if err != nil {
		t.Fatal(err)
	}
	rWide, err := Simulate(analyzed(t, simLayer(), hw, simMapping()))
	if err != nil {
		t.Fatal(err)
	}
	if rThin.Utilization >= rWide.Utilization {
		t.Errorf("thin layer utilization %.3f should be below wide %.3f",
			rThin.Utilization, rWide.Utilization)
	}
}

func TestBandwidthBoundMapping(t *testing.T) {
	// A weight-heavy point-wise layer with tiny W-L1 reloads weights
	// constantly; stalls must appear.
	fc := workload.Layer{Model: "t", Name: "fc", HO: 1, WO: 1, CO: 4096, CI: 4096,
		R: 1, S: 1, StrideH: 1, StrideW: 1}
	hw := hardware.CaseStudy()
	m := mapping.Mapping{
		PackageSpatial: mapping.SpatialC, PackageTemporal: mapping.ChannelPriority,
		ChipletSpatial: mapping.SpatialC, ChipletCSplit: 8, ChipletPattern: mapping.Pattern{Rows: 1, Cols: 1},
		ChipletTemporal: mapping.ChannelPriority,
		HOt:             1, WOt: 1, COt: 1024, HOc: 1, WOc: 1,
		Rotate: true,
	}
	r, err := Simulate(analyzed(t, fc, hw, m))
	if err != nil {
		t.Fatal(err)
	}
	if r.StallCycles <= 0 {
		t.Errorf("FC layer should be bandwidth bound, got %+v", r)
	}
}

func TestMoreChipletsFasterCompute(t *testing.T) {
	// Same total work on 4 chiplets vs 1 chiplet (same per-core resources):
	// the 4-chiplet package has 4x the MACs and must not be slower.
	l := simLayer()
	hw4 := hardware.CaseStudy()
	hw1 := hw4
	hw1.Chiplets = 1
	m4 := simMapping()
	m4.ChipletSpatial = mapping.SpatialH
	m4.ChipletCSplit = 2
	m4.ChipletPattern = mapping.Pattern{Rows: 2, Cols: 2}
	m1 := simMapping()
	m1.Rotate = false
	m1.COt = 64
	r4, err := Simulate(analyzed(t, l, hw4, m4))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Simulate(analyzed(t, l, hw1, m1))
	if err != nil {
		t.Fatal(err)
	}
	if r4.Cycles >= r1.Cycles {
		t.Errorf("4 chiplets (%d cycles) slower than 1 (%d cycles)", r4.Cycles, r1.Cycles)
	}
}

// TestSimulateTrafficOnAllocationFree pins that the simulator reads the
// analysis and the traffic record in place: each run passes the address of
// its own traffic copy, which an escaping parameter would move to the heap.
func TestSimulateTrafficOnAllocationFree(t *testing.T) {
	a := analyzed(t, simLayer(), hardware.CaseStudy(), simMapping())
	topo, xbar, err := noc.NewInterconnect(a.HW, hardware.FaultMask{})
	if err != nil {
		t.Fatal(err)
	}
	tr0 := a.Traffic()
	var res Result
	n := testing.AllocsPerRun(100, func() {
		tr := tr0
		res, err = SimulateTrafficOn(topo, xbar, a, &tr)
	})
	if n != 0 {
		t.Errorf("SimulateTrafficOn: %.0f allocations per call, want 0", n)
	}
	if want, _ := Simulate(a); err != nil || res != want {
		t.Errorf("SimulateTrafficOn = %+v, %v; Simulate = %+v", res, err, want)
	}
}
