// Package c3p implements NN-Baton's Critical-Capacity Critical-Position
// (C³P) methodology (§IV-B): a quantitative, analytical model of the memory
// access traffic of a hierarchical mapping.
//
// For each buffer, the temporal loop nest is scanned from the innermost loop
// outward. Loops *relevant* to a datatype (output-channel loops for weights,
// planar loops for activations) accumulate the data footprint; contiguous
// *irrelevant* loops form reuse regions. Exploiting reuse across a region
// requires the buffer to hold the footprint accumulated below it — the
// critical capacity Cc_k at critical position Cp_k. A buffer smaller than
// Cc_k reloads that footprint on every region iteration, multiplying the
// fill traffic by the region's trip count P_k:
//
//	A_tot = A_0 × Π_{k: buf < Cc_k} P_k
//
// (The paper's Equation (1) writes the product as (1 + Π P_k); we use the
// internally-consistent product form implied by its worked examples — see
// DESIGN.md.) Because the result is a step function of the buffer size, an
// Analysis can be re-evaluated for new memory allocations in O(#thresholds),
// which is what makes the Fig 15 memory sweep tractable.
package c3p

import (
	"fmt"

	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// Threshold is one critical point: if the buffer capacity is below Capacity
// bytes, fill traffic multiplies by Penalty.
type Threshold struct {
	Capacity int64 // critical capacity Cc_k in bytes
	Penalty  int64 // reuse-region trip count P_k
}

// FillAnalysis is the C³P result for one buffer and one datatype: the
// intrinsic fill volume plus the ordered list of critical points
// (innermost-first).
type FillAnalysis struct {
	// Base is the footprint of the innermost reuse unit in bytes.
	Base int64
	// Intrinsic is the fill volume A_0 with unbounded capacity.
	Intrinsic int64
	// Thresholds holds the critical points from innermost to outermost.
	Thresholds []Threshold
}

// Fills evaluates the total fill volume for a buffer of the given capacity.
func (f *FillAnalysis) Fills(capacityBytes int64) int64 {
	total := f.Intrinsic
	for _, t := range f.Thresholds {
		if capacityBytes < t.Capacity {
			total *= t.Penalty
		}
	}
	return total
}

// PenaltyFreeCapacity returns the smallest capacity at which no penalty
// applies (the outermost critical capacity), or 0 if there are no critical
// points.
func (f FillAnalysis) PenaltyFreeCapacity() int64 {
	var capMax int64
	for _, t := range f.Thresholds {
		capMax = max(capMax, t.Capacity)
	}
	return capMax
}

// String summarizes the analysis.
func (f FillAnalysis) String() string {
	return fmt.Sprintf("base=%dB intrinsic=%dB thresholds=%v", f.Base, f.Intrinsic, f.Thresholds)
}

// walker accumulates the generic inner→outer C³P scan. It appends critical
// points to a caller-provided buffer (nil for the allocating convenience
// paths), so the mapper's candidate loop can reuse one buffer per worker.
type walker struct {
	foot      int64 // accumulated footprint (critical capacity candidate)
	intrinsic int64
	pending   int64 // trip count of the open irrelevant reuse region
	ths       []Threshold
}

func newWalker(base int64, buf []Threshold) walker {
	return walker{foot: base, intrinsic: base, pending: 1, ths: buf}
}

// relevant crosses a relevant loop: flush any open reuse region first (its
// critical capacity is the footprint accumulated so far), then scale the
// footprint and intrinsic volume.
func (w *walker) relevant(count int64, newFoot int64) {
	w.flush()
	w.foot = newFoot
	w.intrinsic *= count
}

// irrelevant extends the open reuse region.
func (w *walker) irrelevant(count int64) { w.pending *= count }

func (w *walker) flush() {
	if w.pending > 1 {
		w.ths = append(w.ths, Threshold{Capacity: w.foot, Penalty: w.pending})
		w.pending = 1
	}
}

func (w *walker) finish(base int64) FillAnalysis {
	// A reuse region at the nest boundary still needs the accumulated
	// footprint to be reused across it (paper example-1).
	w.flush()
	return FillAnalysis{Base: base, Intrinsic: w.intrinsic, Thresholds: w.ths}
}

// WeightWalk analyzes weight fills over a temporal nest (outer→inner). The
// innermost unit is the weight set of one core workload: baseCO output
// channels over the layer's full CI×R×S reduction. Output-channel loops are
// relevant; planar loops are irrelevant.
func WeightWalk(l workload.Layer, nest []mapping.Loop, baseCO int) FillAnalysis {
	return weightWalk(&l, nest, baseCO, nil)
}

// weightWalk is WeightWalk writing thresholds into buf (appended from buf[:0]
// by the caller; nil allocates).
func weightWalk(l *workload.Layer, nest []mapping.Loop, baseCO int, buf []Threshold) FillAnalysis {
	base := int64(baseCO) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S)
	w := newWalker(base, buf)
	for i := len(nest) - 1; i >= 0; i-- {
		lp := nest[i]
		if lp.Count <= 1 {
			continue
		}
		if lp.Dim == mapping.DimC {
			w.relevant(int64(lp.Count), w.foot*int64(lp.Count))
		} else {
			w.irrelevant(int64(lp.Count))
		}
	}
	return w.finish(base)
}

// ActivationWalk analyzes input-activation fills over a temporal nest
// (outer→inner). The innermost unit is the input tile of a baseHO×baseWO
// output tile across ci channels, including the kernel halo. Planar loops
// are relevant (footprints grow by input extent, so halo overlap is modeled
// exactly); channel loops are irrelevant (the same activations feed every
// output channel).
func ActivationWalk(l workload.Layer, nest []mapping.Loop, baseHO, baseWO, ci int) FillAnalysis {
	return activationWalk(&l, nest, baseHO, baseWO, ci, nil)
}

// activationWalk is ActivationWalk writing thresholds into buf (appended from
// buf[:0] by the caller; nil allocates).
func activationWalk(l *workload.Layer, nest []mapping.Loop, baseHO, baseWO, ci int, buf []Threshold) FillAnalysis {
	h, wo := baseHO, baseWO
	base := l.TileInputBytes(h, wo, ci)
	w := newWalker(base, buf)
	for i := len(nest) - 1; i >= 0; i-- {
		lp := nest[i]
		if lp.Count <= 1 {
			continue
		}
		switch lp.Dim {
		case mapping.DimH:
			h *= lp.Count
			w.relevant(int64(lp.Count), l.TileInputBytes(h, wo, ci))
		case mapping.DimW:
			wo *= lp.Count
			w.relevant(int64(lp.Count), l.TileInputBytes(h, wo, ci))
		default:
			w.irrelevant(int64(lp.Count))
		}
	}
	return w.finish(base)
}

// WithInnerThreshold prepends the supplemental Cc₀ critical point of Fig 6(e):
// below the innermost streaming slice capacity, intra-tile reuse is lost and
// fills multiply by the window-overlap penalty.
func (f FillAnalysis) WithInnerThreshold(capacity, penalty int64) FillAnalysis {
	if penalty <= 1 {
		return f
	}
	out := f
	out.Thresholds = append([]Threshold{{Capacity: capacity, Penalty: penalty}}, f.Thresholds...)
	return out
}

// withInnerThresholdInPlace is WithInnerThreshold shifting within (and possibly
// growing) the existing threshold buffer instead of allocating a fresh slice.
// The caller must own the backing array.
func (f FillAnalysis) withInnerThresholdInPlace(capacity, penalty int64) FillAnalysis {
	if penalty <= 1 {
		return f
	}
	f.Thresholds = append(f.Thresholds, Threshold{})
	copy(f.Thresholds[1:], f.Thresholds)
	f.Thresholds[0] = Threshold{Capacity: capacity, Penalty: penalty}
	return f
}
