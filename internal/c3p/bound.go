package c3p

// Group-level admissible traffic floors for the mapper's best-first search.
//
// The per-probe TrafficFloor already under-counts every component of a single
// mapping's traffic. The best-first generator needs one level more: a bound on
// the *best* probe a whole candidate group — a spatial subtree × planar pair,
// with the chiplet-tile and core-tile choices still open — can possibly
// produce, cheap enough to price hundreds of groups before expanding any. The
// mapper minimizes each shape-product term independently over the group's
// small candidate lists (min of a product is ≥ the product of per-factor
// minima, all factors being positive counts) and hands the minima to
// GroupTrafficFloor, which assembles them through exactly the distribution
// branches of fixedTraffic + assembleTraffic. Every assembled component is
// therefore ≤ the corresponding TrafficFloor component of every member probe,
// and since the energy model is linear with non-negative coefficients the
// priced group bound is admissible for the whole group.

import (
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// GroupFloorTerms are independently minimized shape-product terms over one
// candidate group. Each field is a true lower bound on (or the exact value of)
// the named quantity for every member probe; the mapper computes the minima by
// iterating the group's candidate lists (tile series × core pairs).
type GroupFloorTerms struct {
	// C1Min lower-bounds the package channel trip count C1.
	C1Min int64
	// C12Min lower-bounds the channel trip product C1·C2.
	C12Min int64
	// OLChanMin lower-bounds C1·C2·activeLanes (the O-L1 channel product;
	// activeLanes couples to the chiplet tile through COs).
	OLChanMin int64
	// H1W1 is the exact package planar trip count of the group's planar pair.
	H1W1 int64
	// H2W2Min lower-bounds the chiplet planar trip count H2·W2.
	H2W2Min int64
	// PlanarCovMin lower-bounds the planar coverage (H2·HOc)·(W2·WOc) — the
	// rounded-up core-tile sweep of the per-core region, ≥ HOs·WOs.
	PlanarCovMin int64
	// AL2Intr is the exact intrinsic per-chiplet activation fill volume of the
	// planar pair: TileInputBytes(HOt, WOt, CI)·H1·W1.
	AL2Intr int64
	// AL1IntrMin lower-bounds the intrinsic per-core activation volume times
	// the chiplet planar trips: TileInputBytes(HOc, WOc, CI)·H2·W2.
	AL1IntrMin int64
}

// GroupTrafficFloor writes into t a traffic record that is component-wise ≤ the
// TrafficFloor of every probe in the group. pkg/rotate/csplit are the group's
// subtree constants (every member shares them); the open tile choices enter
// only through the minimized terms. The body mirrors fixedTraffic and
// assembleTraffic term by term — same branches, same integer divisions — so
// the group bound and the exact evaluation can never diverge structurally.
// Admissibility is pinned by the mapper's TestGroupBoundAdmissible.
func GroupTrafficFloor(t *Traffic, l *workload.Layer, hw *hardware.Config, pkg mapping.Spatial,
	rotate bool, csplit int, gt *GroupFloorTerms) {
	*t = Traffic{}
	chiplets := int64(hw.Chiplets)
	cores := int64(hw.Cores)
	ciSteps := ceilDiv64(int64(l.CIPerGroup()), int64(hw.Vector))
	rs := int64(l.R) * int64(l.S)

	// fixedTraffic counterparts. pkgPos·chipPos factors as
	// (C1·C2)·(H1·W1)·(H2·W2); cyclesPerWL contributes HOc·WOc·R·S·ciSteps,
	// and (H2·W2)·(HOc·WOc) is bounded jointly by PlanarCovMin.
	t.MACs = l.MACs()
	t.OL1RMW = chiplets * cores * gt.H1W1 * gt.OLChanMin * gt.PlanarCovMin * rs * ciSteps
	t.AL1Reads = chiplets * cores * gt.H1W1 * gt.C12Min * gt.PlanarCovMin * rs * ciSteps * int64(hw.Vector)
	if l.G() > 1 {
		span := (hw.Lanes + l.COPerGroup() - 1) / l.COPerGroup()
		t.AL1Reads *= int64(max(1, min(hw.Lanes, span)))
	}
	wtPerWL := int64(hw.Lanes) * ciSteps * int64(hw.Vector) * rs
	t.WL1Reads = chiplets * int64(csplit) * gt.C12Min * gt.H1W1 * gt.H2W2Min * wtPerWL
	out := l.OutputBytes()
	t.DRAMOutWrites = out
	t.OL2Writes = out
	t.OL2Reads = out

	// assembleTraffic counterparts: intrinsic fill volumes through the same
	// distribution branches (pkg spatial × rotate are subtree constants).
	wFillsMin := int64(hw.Lanes) * int64(l.CIPerGroup()) * rs * gt.C12Min
	perChipletWt := wFillsMin * int64(csplit)
	t.WL1Writes = perChipletWt * chiplets
	if pkg == mapping.SpatialP && rotate {
		t.DRAMWtReads = perChipletWt
		t.D2DWts = perChipletWt * (chiplets - 1)
	} else {
		t.DRAMWtReads = perChipletWt * chiplets
	}

	perChipletAct := gt.AL2Intr
	t.AL2Writes = perChipletAct * chiplets
	if pkg == mapping.SpatialC && rotate {
		t.DRAMActReads = perChipletAct
		t.D2DActs = perChipletAct * (chiplets - 1)
	} else {
		t.DRAMActReads = perChipletAct * chiplets
	}

	t.AL1Writes = gt.AL1IntrMin * cores * gt.C1Min * gt.H1W1 * chiplets
	t.AL2Reads = t.AL1Writes / int64(csplit)
	if pkg == mapping.SpatialC && rotate {
		t.AL2Reads += perChipletAct * (chiplets - 1)
	}
}

// GroupCyclesFloor lower-bounds sim.ComputeBoundCyclesOf over every member
// probe of the group: pkgPos·chipPos·HOc·WOc·R·S·ciSteps factored through the
// same minimized terms as GroupTrafficFloor.
func GroupCyclesFloor(l *workload.Layer, hw *hardware.Config, gt *GroupFloorTerms) int64 {
	ciSteps := ceilDiv64(int64(l.CIPerGroup()), int64(hw.Vector))
	return gt.C12Min * gt.H1W1 * gt.PlanarCovMin * int64(l.R) * int64(l.S) * ciSteps
}
