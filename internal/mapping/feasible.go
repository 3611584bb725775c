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
func (m Mapping) Feasible(l workload.Layer, hw hardware.Config) bool {
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
func (n Needs) Fits(hw hardware.Config) bool {
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
func (m Mapping) Needs(l workload.Layer, hw hardware.Config) (n Needs, ok bool) {
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
	if m.Rotate && m.PackageSpatial == SpatialP {
		// chunk > WL1·share  ⟺  WL1 < ⌈chunk / share⌉ for integer WL1.
		share := int64(s.WeightShareCores)
		n.WL1 = max(n.WL1, (m.rotatingChunk(l, hw)+share-1)/share)
	}
	return n, true
}

// Compare orders two mappings by a fixed lexicographic key over every field:
// spatial primitives, patterns, temporal orders, tile sizes, rotation. It is
// a strict total order on distinct mappings, which the mapper uses to break
// exact objective-score ties deterministically — serial, parallel and pruned
// searches then agree on the top-K set regardless of evaluation order.
func Compare(a, b Mapping) int {
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
