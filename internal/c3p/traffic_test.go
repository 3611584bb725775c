package c3p

import (
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

func caseMapping() (workload.Layer, hardware.Config, mapping.Mapping) {
	l := workload.Layer{Model: "t", Name: "conv", HO: 56, WO: 56, CO: 64, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	hw := hardware.CaseStudy()
	m := mapping.Mapping{
		PackageSpatial: mapping.SpatialC, PackageTemporal: mapping.ChannelPriority,
		ChipletSpatial: mapping.SpatialC, ChipletCSplit: 8, ChipletPattern: mapping.Pattern{Rows: 1, Cols: 1},
		ChipletTemporal: mapping.PlanePriority,
		HOt:             14, WOt: 14, COt: 16, HOc: 4, WOc: 4,
		Rotate: true,
	}
	return l, hw, m
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	l, hw, m := caseMapping()
	m.HOt = 0
	if _, err := Analyze(l, hw, m); err == nil {
		t.Error("expected validation error")
	}
}

func TestAnalyzeBasicConservation(t *testing.T) {
	l, hw, m := caseMapping()
	a, err := Analyze(l, hw, m)
	if err != nil {
		t.Fatal(err)
	}
	tr := a.Traffic()
	// MACs are exact.
	if tr.MACs != l.MACs() {
		t.Errorf("MACs = %d, want %d", tr.MACs, l.MACs())
	}
	// Outputs leave the package exactly once, 8-bit requantized.
	if tr.DRAMOutWrites != l.OutputBytes() || tr.OL2Writes != l.OutputBytes() {
		t.Errorf("output writes = %d/%d, want %d", tr.DRAMOutWrites, tr.OL2Writes, l.OutputBytes())
	}
	// NN-Baton's output-centric dataflow never moves partial sums between
	// units.
	if tr.D2DPsums != 0 || tr.L2Psum != 0 {
		t.Errorf("psum traffic must be zero: %d/%d", tr.D2DPsums, tr.L2Psum)
	}
	// All activations must be read from DRAM at least once; weight reads
	// must cover the weight tensor.
	if tr.DRAMActReads < l.InputBytes() {
		t.Errorf("DRAM act reads %d < input volume %d", tr.DRAMActReads, l.InputBytes())
	}
	if tr.DRAMWtReads < l.WeightBytes() {
		t.Errorf("DRAM weight reads %d < weight volume %d", tr.DRAMWtReads, l.WeightBytes())
	}
	// The PE arrays stream at least MACs/Lanes input bytes.
	if tr.AL1Reads < l.MACs()/int64(hw.Lanes) {
		t.Errorf("A-L1 reads %d < MACs/lanes %d", tr.AL1Reads, l.MACs()/int64(hw.Lanes))
	}
	// One 24-bit RMW per vector-MAC reduction per active lane.
	if tr.OL1RMW < l.MACs()/int64(hw.Vector) {
		t.Errorf("O-L1 RMW %d < MACs/vector %d", tr.OL1RMW, l.MACs()/int64(hw.Vector))
	}
	// Fill chains: what A-L1 receives was read from A-L2 (possibly
	// multicast, so A-L2 reads can be smaller but not larger modulo the
	// rotation forwarding term).
	if tr.AL2Reads > tr.AL1Writes+tr.D2DActs {
		t.Errorf("A-L2 reads %d exceed A-L1 writes %d + rotation %d", tr.AL2Reads, tr.AL1Writes, tr.D2DActs)
	}
}

func TestRotationTradesDRAMForD2D(t *testing.T) {
	l, hw, m := caseMapping()
	a1, err := Analyze(l, hw, m)
	if err != nil {
		t.Fatal(err)
	}
	m.Rotate = false
	a2, err := Analyze(l, hw, m)
	if err != nil {
		t.Fatal(err)
	}
	rot, dup := a1.Traffic(), a2.Traffic()
	if rot.D2DActs == 0 || dup.D2DActs != 0 {
		t.Fatalf("D2D acts: rotate=%d no-rotate=%d", rot.D2DActs, dup.D2DActs)
	}
	if rot.DRAMActReads >= dup.DRAMActReads {
		t.Errorf("rotation should cut DRAM act reads: %d >= %d", rot.DRAMActReads, dup.DRAMActReads)
	}
	// The rotating transfer converts (N_P−1)/N_P of the DRAM rereads into
	// D2D hops one-for-one.
	if rot.DRAMActReads+rot.D2DActs != dup.DRAMActReads {
		t.Errorf("rotation conservation: %d + %d != %d", rot.DRAMActReads, rot.D2DActs, dup.DRAMActReads)
	}
	// At Table I energies the trade is always profitable (1.17 < 8.75).
	eRot := float64(rot.DRAMActReads)*hardware.DRAMPJPerBit + float64(rot.D2DActs)*hardware.D2DPJPerBit
	eDup := float64(dup.DRAMActReads) * hardware.DRAMPJPerBit
	if eRot >= eDup {
		t.Errorf("rotation energy %f >= duplication %f", eRot, eDup)
	}
}

func TestWeightRotationPType(t *testing.T) {
	l, hw, _ := caseMapping()
	m := mapping.Mapping{
		PackageSpatial: mapping.SpatialP, PackagePattern: mapping.Pattern{Rows: 2, Cols: 2},
		PackageTemporal: mapping.PlanePriority,
		ChipletSpatial:  mapping.SpatialP, ChipletCSplit: 1, ChipletPattern: mapping.Pattern{Rows: 2, Cols: 4},
		ChipletTemporal: mapping.ChannelPriority,
		HOt:             14, WOt: 28, COt: 64, HOc: 4, WOc: 4,
		Rotate: true,
	}
	a, err := Analyze(l, hw, m)
	if err != nil {
		t.Fatal(err)
	}
	tr := a.Traffic()
	if tr.D2DWts == 0 {
		t.Error("P-type rotation should move weights over the ring")
	}
	if tr.D2DActs != 0 {
		t.Errorf("P-type split must not rotate activations, got %d", tr.D2DActs)
	}
	if tr.D2DWts != tr.DRAMWtReads*int64(hw.Chiplets-1) {
		t.Errorf("weight rotation ratio: D2D %d, DRAM %d", tr.D2DWts, tr.DRAMWtReads)
	}
}

func TestTrafficAtMonotoneInBuffers(t *testing.T) {
	l, hw, m := caseMapping()
	a, err := Analyze(l, hw, m)
	if err != nil {
		t.Fatal(err)
	}
	small := a.TrafficAt(400, 2048, 8*1024)
	big := a.TrafficAt(128*1024, 256*1024, 256*1024)
	if small.DRAMActReads < big.DRAMActReads || small.DRAMWtReads < big.DRAMWtReads {
		t.Errorf("larger buffers must not increase DRAM traffic: small=%+v big=%+v",
			small.DRAMActReads, big.DRAMActReads)
	}
	if small.AL1Writes < big.AL1Writes {
		t.Error("larger A-L1 must not increase A-L1 fills")
	}
	// Penalty-free point: traffic stops improving beyond the critical
	// capacities.
	free := a.TrafficAt(1<<30, 1<<30, 1<<30)
	if free.DRAMActReads != big.DRAMActReads && a.MinPenaltyFreeAL2() < 256*1024 {
		t.Errorf("expected penalty-free DRAM traffic at 256KB A-L2")
	}
}

func TestTrafficAdd(t *testing.T) {
	a := Traffic{DRAMActReads: 1, D2DActs: 2, AL1Reads: 3, MACs: 4, OL1RMW: 5}
	b := Traffic{DRAMActReads: 10, D2DWts: 20, AL1Reads: 30, MACs: 40}
	c := a.Add(b)
	if c.DRAMActReads != 11 || c.D2DActs != 2 || c.D2DWts != 20 || c.AL1Reads != 33 ||
		c.MACs != 44 || c.OL1RMW != 5 {
		t.Errorf("Add = %+v", c)
	}
	if c.DRAMBytes() != 11 || c.D2DBytes() != 22 {
		t.Errorf("sums: DRAM %d D2D %d", c.DRAMBytes(), c.D2DBytes())
	}
}

// Weight-intensive layers with channel-priority package order should see a
// W-L1 capacity threshold requiring the whole chiplet weight set to avoid
// planar reloads.
func TestWeightReloadPenaltyShape(t *testing.T) {
	l := workload.Layer{Model: "t", Name: "conv12", HO: 14, WO: 14, CO: 512, CI: 512,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	hw := hardware.CaseStudy()
	m := mapping.Mapping{
		PackageSpatial: mapping.SpatialC, PackageTemporal: mapping.ChannelPriority,
		ChipletSpatial: mapping.SpatialC, ChipletCSplit: 8, ChipletPattern: mapping.Pattern{Rows: 1, Cols: 1},
		ChipletTemporal: mapping.ChannelPriority,
		HOt:             7, WOt: 7, COt: 128, HOc: 4, WOc: 4,
		Rotate: true,
	}
	a, err := Analyze(l, hw, m)
	if err != nil {
		t.Fatal(err)
	}
	// With channel loops innermost at both levels, the planar loops form
	// outer reuse regions: the penalty-free W-L1 pool must hold the whole
	// per-core weight slice across planar steps.
	perChipletWeights := int64(128) * 512 * 9
	if a.MinPenaltyFreeWL1Pool() != perChipletWeights/8 {
		t.Errorf("penalty-free pool = %d, want %d", a.MinPenaltyFreeWL1Pool(), perChipletWeights/8)
	}
	// 18KB per-core W-L1 < 73.7KB slice: DRAM weight traffic must exceed
	// the intrinsic volume.
	tr := a.Traffic()
	if tr.DRAMWtReads <= l.WeightBytes() {
		t.Errorf("expected weight reload penalty: %d <= %d", tr.DRAMWtReads, l.WeightBytes())
	}
}

// TestKernelsAllocationFree pins the kernels' pointer calling convention:
// each run declares its own copies of the inputs and passes their addresses,
// so a kernel whose parameter escaped would move those copies to the heap
// and cost an allocation per run. The scratch is warmed first, so its
// buffers have reached steady state.
func TestKernelsAllocationFree(t *testing.T) {
	l0, hw0, m0 := caseMapping()
	var (
		a  Analysis
		sc Scratch
		tr Traffic
	)
	AnalyzeInto(&a, &sc, &l0, &hw0, &m0)
	s0 := a.Shape
	gt0 := GroupFloorTerms{
		C1Min: int64(s0.C1), C12Min: int64(s0.C1 * s0.C2),
		OLChanMin: int64(s0.C1*s0.C2) * int64(min(hw0.Lanes, s0.COs)),
		H1W1:      int64(s0.H1 * s0.W1), H2W2Min: int64(s0.H2 * s0.W2),
		PlanarCovMin: int64(s0.H2*m0.HOc) * int64(s0.W2*m0.WOc),
		AL2Intr:      l0.TileInputBytes(m0.HOt, m0.WOt, l0.CI) * int64(s0.H1*s0.W1),
		AL1IntrMin:   l0.TileInputBytes(m0.HOc, m0.WOc, l0.CI) * int64(s0.H2*s0.W2),
	}
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"AnalyzeInto", func() {
			l, hw, m := l0, hw0, m0
			AnalyzeInto(&a, &sc, &l, &hw, &m)
		}},
		{"TrafficAt", func() { tr = a.TrafficAt(hw0.AL1Bytes, hw0.WL1Bytes, hw0.AL2Bytes) }},
		{"TrafficFloor", func() {
			l, hw, m, s := l0, hw0, m0, s0
			TrafficFloor(&tr, &l, &hw, &m, &s)
		}},
		{"GroupTrafficFloor", func() {
			l, hw, gt := l0, hw0, gt0
			GroupTrafficFloor(&tr, &l, &hw, m0.PackageSpatial, m0.Rotate, m0.ChipletCSplit, &gt)
		}},
	} {
		if n := testing.AllocsPerRun(100, k.run); n != 0 {
			t.Errorf("%s: %.0f allocations per call, want 0", k.name, n)
		}
	}
	if tr.MACs != l0.MACs() {
		t.Errorf("GroupTrafficFloor MACs = %d, want %d", tr.MACs, l0.MACs())
	}
}
