package energy

import (
	"math"
	"testing"

	"nnbaton/internal/c3p"
	"nnbaton/internal/hardware"
)

func TestFromTrafficPricing(t *testing.T) {
	cm := hardware.MustCostModel()
	hw := hardware.CaseStudy()
	tr := c3p.Traffic{
		DRAMActReads: 100, DRAMWtReads: 50, DRAMOutWrites: 25,
		D2DActs: 40, D2DWts: 10,
		AL2Writes: 30, AL2Reads: 70,
		AL1Writes: 20, AL1Reads: 80,
		WL1Writes: 5, WL1Reads: 15,
		OL2Writes: 9, OL2Reads: 9,
		OL1RMW: 1000, MACs: 10000,
	}
	b := FromTraffic(tr, hw, cm)
	if want := 175.0 * 8 * hardware.DRAMPJPerBit; math.Abs(b.DRAM-want) > 1e-9 {
		t.Errorf("DRAM = %f, want %f", b.DRAM, want)
	}
	// Explicit ring traffic plus the crossbar-crossing share of DRAM bytes
	// ((N_P−1)/N_P = 3/4 on the 4-chiplet case study).
	if want := (50.0 + 175.0*0.75) * 8 * hardware.D2DPJPerBit; math.Abs(b.D2D-want) > 1e-9 {
		t.Errorf("D2D = %f, want %f", b.D2D, want)
	}
	if want := 100.0 * 8 * cm.SRAMPJPerBit(hw.AL2Bytes); math.Abs(b.AL2-want) > 1e-9 {
		t.Errorf("AL2 = %f, want %f", b.AL2, want)
	}
	if want := 1000 * cm.RFRMWPJ(hw.OL1Bytes); math.Abs(b.OL1-want) > 1e-9 {
		t.Errorf("OL1 = %f, want %f", b.OL1, want)
	}
	if want := 10000 * hardware.MACPJPerOp; math.Abs(b.MAC-want) > 1e-9 {
		t.Errorf("MAC = %f, want %f", b.MAC, want)
	}
	sum := 0.0
	for _, c := range b.Components() {
		sum += c.PJ
	}
	if math.Abs(sum-b.Total()) > 1e-9 {
		t.Errorf("components sum %f != total %f", sum, b.Total())
	}
}

// TestFromTrafficAllocationFree pins that pricing reads its inputs in place:
// FromTraffic hands the addresses of its value parameters to Price, so a
// Price parameter that escaped would move them to the heap on every call.
func TestFromTrafficAllocationFree(t *testing.T) {
	cm := hardware.MustCostModel()
	hw := hardware.CaseStudy()
	tr := c3p.Traffic{DRAMActReads: 100, D2DActs: 40, AL1Reads: 80, OL1RMW: 1000, MACs: 10000}
	var b Breakdown
	if n := testing.AllocsPerRun(100, func() { b = FromTraffic(tr, hw, cm) }); n != 0 {
		t.Errorf("FromTraffic: %.0f allocations per call, want 0", n)
	}
	if b != Price(&tr, &hw, cm) {
		t.Errorf("FromTraffic = %+v, Price = %+v", b, Price(&tr, &hw, cm))
	}
}

func TestSimbaPsumPricing(t *testing.T) {
	cm := hardware.MustCostModel()
	hw := hardware.CaseStudy()
	tr := c3p.Traffic{D2DPsums: 100, L2Psum: 200}
	b := FromTraffic(tr, hw, cm)
	if b.D2D <= 0 || b.AL2 <= 0 {
		t.Errorf("psum traffic must be priced: D2D=%f AL2=%f", b.D2D, b.AL2)
	}
}

func TestOL2FallsBackToAL2Size(t *testing.T) {
	cm := hardware.MustCostModel()
	hw := hardware.CaseStudy()
	hw.OL2Bytes = 0
	tr := c3p.Traffic{OL2Writes: 100, OL2Reads: 100}
	b := FromTraffic(tr, hw, cm)
	want := 200.0 * 8 * cm.SRAMPJPerBit(hw.AL2Bytes)
	if math.Abs(b.OL2-want) > 1e-9 {
		t.Errorf("OL2 = %f, want %f", b.OL2, want)
	}
}

func TestAddScaleEDP(t *testing.T) {
	a := Breakdown{DRAM: 1, D2D: 2, AL2: 3, AL1: 4, WL1: 5, OL1: 6, OL2: 7, MAC: 8}
	b := a.Add(a)
	if b.Total() != 2*a.Total() {
		t.Errorf("Add total = %f", b.Total())
	}
	c := a.Scale(3)
	if c.Total() != 3*a.Total() || c.WL1 != 15 {
		t.Errorf("Scale = %+v", c)
	}
	if got := EDP(a, 2.0); got != 2*a.Total() {
		t.Errorf("EDP = %f", got)
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}
