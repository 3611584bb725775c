package mapping

import (
	"cmp"

	"nnbaton/internal/hardware"
	"nnbaton/internal/workload"
)

// Feasible reports whether the mapping passes every structural and buffer
// constraint that Validate checks, without constructing error values — the
// mapper's branch-and-bound search calls it once per probe, where the
// fmt.Errorf allocations of Validate's reject paths would dominate the
// profile. It assumes the layer and hardware configuration are themselves
// valid (Validate re-checks those first); under that precondition
// Feasible(l, hw) == (Validate(l, hw) == nil), a lockstep enforced by
// TestFeasibleMatchesValidate.
func (m *Mapping) Feasible(l *workload.Layer, hw *hardware.Config) bool {
	n, ok := m.Needs(l, hw)
	return ok && n.Fits(hw)
}

// Needs is the smallest buffer allocation, in bytes, at which a structurally
// valid mapping passes Validate: the mapping fits a memory point exactly when
// every buffer is at least its need.
type Needs struct {
	OL1, AL1, WL1, AL2 int64
}

// Fits reports whether every buffer of hw meets its need.
func (n Needs) Fits(hw *hardware.Config) bool {
	return n.OL1 <= int64(hw.OL1Bytes) && n.AL1 <= int64(hw.AL1Bytes) &&
		n.WL1 <= int64(hw.WL1Bytes) && n.AL2 <= int64(hw.AL2Bytes)
}

// Needs splits Validate into its two halves. It runs the structural checks
// (split arity, patterns, tile bounds, rotation), which read only the
// compute fields of hw (chiplets, cores, lanes, vector), and returns the
// minimum buffer sizes from the same per-buffer requirements Validate
// reports on; ok is false when no buffer allocation makes the mapping
// valid. A rotating P-type split also needs its per-hop weight chunk to fit
// the merged W-L1 pool of WeightShareCores buffers, so its W-L1 need is the
// larger of the streaming chunk and ⌈chunk / WeightShareCores⌉.
//
// Like Feasible it assumes a valid layer and hardware configuration; under
// that precondition Validate(l, hw) == nil exactly when ok && n.Fits(hw), so
// a sweep over memory allocations can check the structure once per compute
// configuration and each memory point with four integer compares.
func (m *Mapping) Needs(l *workload.Layer, hw *hardware.Config) (n Needs, ok bool) {
	switch m.PackageSpatial {
	case SpatialC:
		if l.CO < hw.Chiplets {
			return n, false
		}
	case SpatialP:
		if m.PackagePattern.Parts() != hw.Chiplets ||
			m.PackagePattern.Rows > l.HO || m.PackagePattern.Cols > l.WO {
			return n, false
		}
	default:
		return n, false
	}
	csplit, planar := m.ChipletCSplit, m.ChipletPattern.Parts()
	switch m.ChipletSpatial {
	case SpatialC:
		if csplit != hw.Cores || planar != 1 {
			return n, false
		}
	case SpatialP:
		if csplit != 1 || planar != hw.Cores {
			return n, false
		}
	case SpatialH:
		if csplit <= 1 || csplit >= hw.Cores || csplit*planar != hw.Cores {
			return n, false
		}
	default:
		return n, false
	}
	s := m.Shape(l, hw)
	switch {
	case m.COt <= 0 || m.HOt <= 0 || m.WOt <= 0 || m.HOc <= 0 || m.WOc <= 0,
		m.COt > s.COp || m.HOt > s.HOp || m.WOt > s.WOp,
		m.HOc > s.HOs || m.WOc > s.WOs,
		m.COt < csplit,
		m.ChipletPattern.Rows > m.HOt || m.ChipletPattern.Cols > m.WOt:
		return n, false
	}
	if m.Rotate && hw.Chiplets == 1 {
		return n, false
	}
	n = Needs{OL1: m.ol1Need(hw), AL1: m.al1Need(l, hw), WL1: m.wl1Need(l, hw), AL2: m.al2Need(l, hw)}
	if m.rotatesWeights() {
		n.WL1 = max(n.WL1, m.rotatingWL1Need(l, hw))
	}
	return n, true
}

// Level-wise checks. A search fixes a mapping's fields from the outside in:
// the layer and hardware, then per (package split, chiplet split) subtree the
// chiplet channel tile COt, then the planar tile (HOt, WOt), and last the
// core tile (HOc, WOc). Each buffer need of Needs is decided at the outermost
// of these levels whose fields it reads:
//
//	streaming W-L1             (l, hw)                  StreamingWL1Fits
//	rotating P-type W-L1       split fields, COt        ChipletTileFits
//	rotating C-type A-L2       split fields, HOt, WOt   PlanarTileFits
//	O-L1, A-L1, other A-L2     core tile                Feasible
//
// The checks compute their needs through the same helpers as Needs, so a
// check rejects a prefix only when Feasible rejects every completion of it
// (TestLevelChecksSound). The split fields are PackageSpatial, Rotate and
// ChipletPattern.

// StreamingWL1Fits reports whether the double-buffered streaming weight
// chunk, which every mapping of l on hw needs, fits the W-L1 buffer. When it
// does not, no mapping of the layer is feasible on hw.
func StreamingWL1Fits(l *workload.Layer, hw *hardware.Config) bool {
	return (&Mapping{}).wl1Need(l, hw) <= int64(hw.WL1Bytes)
}

// ChipletTileFits reports whether a rotating P-type split's per-hop weight
// chunk, set by the split fields and COt, fits the merged W-L1 pool. It is
// true for every other split.
func (m *Mapping) ChipletTileFits(l *workload.Layer, hw *hardware.Config) bool {
	return !m.rotatesWeights() || m.rotatingWL1Need(l, hw) <= int64(hw.WL1Bytes)
}

// PlanarTileFits reports whether a rotating C-type split's A-L2 staging
// chunk, set by the split fields and (HOt, WOt), fits the A-L2 buffer. It is
// true for every other split, whose A-L2 need depends on the core tile.
func (m *Mapping) PlanarTileFits(l *workload.Layer, hw *hardware.Config) bool {
	return !m.rotatesActivations() || m.al2Need(l, hw) <= int64(hw.AL2Bytes)
}

// Compare orders two mappings by a fixed lexicographic key over every field:
// spatial primitives, patterns, temporal orders, tile sizes, rotation. It is
// a strict total order on distinct mappings, which the mapper uses to break
// exact objective-score ties deterministically — serial, parallel and pruned
// searches then agree on the top-K set regardless of evaluation order.
func Compare(a, b *Mapping) int {
	if c := cmp.Compare(a.PackageSpatial, b.PackageSpatial); c != 0 {
		return c
	}
	if c := cmp.Compare(a.PackagePattern.Rows, b.PackagePattern.Rows); c != 0 {
		return c
	}
	if c := cmp.Compare(a.PackagePattern.Cols, b.PackagePattern.Cols); c != 0 {
		return c
	}
	if c := cmp.Compare(a.PackageTemporal, b.PackageTemporal); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ChipletSpatial, b.ChipletSpatial); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ChipletCSplit, b.ChipletCSplit); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ChipletPattern.Rows, b.ChipletPattern.Rows); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ChipletPattern.Cols, b.ChipletPattern.Cols); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ChipletTemporal, b.ChipletTemporal); c != 0 {
		return c
	}
	if c := cmp.Compare(a.COt, b.COt); c != 0 {
		return c
	}
	if c := cmp.Compare(a.HOt, b.HOt); c != 0 {
		return c
	}
	if c := cmp.Compare(a.WOt, b.WOt); c != 0 {
		return c
	}
	if c := cmp.Compare(a.HOc, b.HOc); c != 0 {
		return c
	}
	if c := cmp.Compare(a.WOc, b.WOc); c != 0 {
		return c
	}
	return cmp.Compare(boolKey(a.Rotate), boolKey(b.Rotate))
}

func boolKey(b bool) int {
	if b {
		return 1
	}
	return 0
}
