package mapper

import (
	"fmt"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/sim"
	"nnbaton/internal/workload"
)

// SearchGreedy is a rule-based mapper used as an ablation baseline against
// the exhaustive search: it picks the spatial primitives from the layer
// class (the §VI-A1 heuristics — P-type for activation-heavy layers, C-type
// for weight-heavy ones, hybrid at the chiplet), the temporal orders from
// the dominant datatype, and the largest buffer-feasible tiles. It evaluates
// exactly one mapping.
func SearchGreedy(l workload.Layer, hw hardware.Config, cm *hardware.CostModel) (Option, error) {
	m := mapping.Mapping{Rotate: hw.Chiplets > 1}

	weightHeavy := l.WeightBytes() > l.InputBytes()
	if weightHeavy && l.CO >= hw.Chiplets {
		m.PackageSpatial = mapping.SpatialC
	} else {
		m.PackageSpatial = mapping.SpatialP
		m.PackagePattern = nearSquare(hw.Chiplets, l.HO, l.WO)
		if m.PackagePattern.Parts() != hw.Chiplets {
			if l.CO >= hw.Chiplets {
				m.PackageSpatial = mapping.SpatialC
			} else {
				return Option{}, fmt.Errorf("mapper: greedy: no package split fits %s", l.String())
			}
		}
	}

	// Hybrid chiplet split when both dimensions have room, else pure.
	switch {
	case hw.Cores >= 4 && hw.Cores%2 == 0 && l.CO >= 2*hw.Chiplets:
		m.ChipletSpatial, m.ChipletCSplit = mapping.SpatialH, 2
		m.ChipletPattern = nearSquare(hw.Cores/2, l.HO, l.WO)
	case l.CO >= hw.Cores*hw.Chiplets:
		m.ChipletSpatial, m.ChipletCSplit = mapping.SpatialC, hw.Cores
		m.ChipletPattern = mapping.Pattern{Rows: 1, Cols: 1}
	default:
		m.ChipletSpatial, m.ChipletCSplit = mapping.SpatialP, 1
		m.ChipletPattern = nearSquare(hw.Cores, l.HO, l.WO)
	}

	if weightHeavy {
		m.PackageTemporal, m.ChipletTemporal = mapping.PlanePriority, mapping.PlanePriority
	} else {
		m.PackageTemporal, m.ChipletTemporal = mapping.ChannelPriority, mapping.ChannelPriority
	}

	// Largest buffer-feasible core tile, near-square.
	hop, wop, cop := l.HO, l.WO, l.CO
	if m.PackageSpatial == mapping.SpatialC {
		cop = ceilDiv(l.CO, hw.Chiplets)
	} else {
		hop = ceilDiv(l.HO, m.PackagePattern.Rows)
		wop = ceilDiv(l.WO, m.PackagePattern.Cols)
	}
	core := coreTilePairs(&l, &hw, hop, wop)
	if len(core) == 0 {
		return Option{}, fmt.Errorf("mapper: greedy: no feasible core tile for %s", l.String())
	}
	m.HOc, m.WOc = core[0][0], core[0][1]
	// Chiplet tile: a quarter of the region per dimension, at least the
	// core grid, capped by the region.
	m.HOt = max(min(hop, 4*m.HOc*m.ChipletPattern.Rows), m.ChipletPattern.Rows)
	m.WOt = max(min(wop, 4*m.WOc*m.ChipletPattern.Cols), m.ChipletPattern.Cols)
	m.COt = max(min(cop, hw.Lanes*m.ChipletCSplit), m.ChipletCSplit)
	// Shrink the chiplet tile until the rotating chunk stages in A-L2.
	for m.PackageSpatial == mapping.SpatialC && m.Rotate &&
		2*l.TileInputBytes(m.HOt, m.WOt, ceilDiv(l.CI, hw.Chiplets)) > int64(hw.AL2Bytes) {
		if m.HOt >= m.WOt && m.HOt > m.ChipletPattern.Rows {
			m.HOt = max(m.ChipletPattern.Rows, m.HOt/2)
		} else if m.WOt > m.ChipletPattern.Cols {
			m.WOt = max(m.ChipletPattern.Cols, m.WOt/2)
		} else {
			break
		}
	}

	a, err := c3p.Analyze(l, hw, m)
	if err != nil {
		return Option{}, fmt.Errorf("mapper: greedy mapping invalid: %w", err)
	}
	tr := a.Traffic()
	res, err := sim.SimulateTraffic(a, tr)
	if err != nil {
		return Option{}, err
	}
	return Option{Analysis: a, Energy: energy.FromTraffic(tr, hw, cm), Cycles: res.Cycles}, nil
}

// nearSquare picks the factorization of n closest to the plane's aspect.
func nearSquare(n, h, w int) mapping.Pattern {
	best := mapping.Pattern{Rows: 1, Cols: n}
	bestScore := -1.0
	for _, p := range mapping.GridPatterns(n) {
		if p.Rows > h || p.Cols > w {
			continue
		}
		// Prefer balanced grids (rows ≈ cols scaled by plane aspect).
		r := float64(p.Rows) / float64(p.Cols) * float64(w) / float64(h)
		if r > 1 {
			r = 1 / r
		}
		if r > bestScore {
			bestScore, best = r, p
		}
	}
	return best
}
