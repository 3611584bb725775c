// Package workload models DNN layer workloads for the NN-Baton framework.
//
// Following the paper (§II-A), a layer workload is a complete output cube of
// HO×WO×CO produced from a 3D input cube (IH×IW×CI) and a 4D weight tensor
// (CO×CI×R×S). Batch size is fixed at one. Fully-connected layers are
// reorganized into 1×1 point-wise layers (§VI-A2).
package workload

import "fmt"

// Kind classifies a layer by the taxonomy of §V-B of the paper.
type Kind int

const (
	// ActivationIntensive layers carry more activation than weight traffic
	// (early large-feature-map convolutions).
	ActivationIntensive Kind = iota
	// WeightIntensive layers carry more weight than activation traffic
	// (late, narrow-feature-map convolutions and FC layers).
	WeightIntensive
	// LargeKernel layers use kernels of 5×5 or larger.
	LargeKernel
	// PointWise layers use 1×1 kernels.
	PointWise
	// Common covers the remaining ordinary 3×3 layers.
	Common
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ActivationIntensive:
		return "activation-intensive"
	case WeightIntensive:
		return "weight-intensive"
	case LargeKernel:
		return "large-kernel"
	case PointWise:
		return "point-wise"
	case Common:
		return "common"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Layer describes one convolution (or reorganized FC) layer workload.
// All data is 8-bit; partial sums are reserved 24 bits (§V-A).
type Layer struct {
	Model string // owning model, e.g. "VGG-16"
	Name  string // layer name, e.g. "conv1" or "res2a_branch2a"

	// Output cube.
	HO, WO, CO int
	// Input channels.
	CI int
	// Kernel extents (R = height, S = width) and strides.
	R, S             int
	StrideH, StrideW int
	// Zero padding applied on each side of the input.
	PadH, PadW int
	// Groups is the grouped-convolution factor (0 or 1 = dense; CI = CO =
	// Groups is a depthwise convolution). Each output channel reduces over
	// CI/Groups input channels.
	Groups int
}

// G returns the effective group count (Groups clamped to at least 1).
func (l *Layer) G() int { return max(1, l.Groups) }

// CIPerGroup returns the input channels reduced per output channel.
func (l *Layer) CIPerGroup() int { return l.CI / l.G() }

// COPerGroup returns the output channels produced per group.
func (l *Layer) COPerGroup() int { return l.CO / l.G() }

// Validate reports an error if the layer dimensions are not a well-formed
// convolution workload.
func (l Layer) Validate() error {
	switch {
	case l.HO <= 0 || l.WO <= 0 || l.CO <= 0 || l.CI <= 0:
		return fmt.Errorf("workload: %s/%s: non-positive dimension %dx%dx%d ci=%d",
			l.Model, l.Name, l.HO, l.WO, l.CO, l.CI)
	case l.R <= 0 || l.S <= 0:
		return fmt.Errorf("workload: %s/%s: non-positive kernel %dx%d", l.Model, l.Name, l.R, l.S)
	case l.StrideH <= 0 || l.StrideW <= 0:
		return fmt.Errorf("workload: %s/%s: non-positive stride", l.Model, l.Name)
	case l.PadH < 0 || l.PadW < 0:
		return fmt.Errorf("workload: %s/%s: negative padding", l.Model, l.Name)
	case l.Groups < 0:
		return fmt.Errorf("workload: %s/%s: negative groups", l.Model, l.Name)
	case l.CI%l.G() != 0 || l.CO%l.G() != 0:
		return fmt.Errorf("workload: %s/%s: groups %d must divide CI=%d and CO=%d",
			l.Model, l.Name, l.G(), l.CI, l.CO)
	}
	return nil
}

// OutDim computes the output extent of a convolution along one axis.
func OutDim(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// InExtent computes the input extent (including halo) required to produce
// `out` consecutive output positions along one axis: (out−1)·stride + kernel.
func InExtent(out, kernel, stride int) int {
	if out <= 0 {
		return 0
	}
	return (out-1)*stride + kernel
}

// IH returns the padded input height consumed by the full layer.
func (l *Layer) IH() int { return InExtent(l.HO, l.R, l.StrideH) }

// IW returns the padded input width consumed by the full layer.
func (l *Layer) IW() int { return InExtent(l.WO, l.S, l.StrideW) }

// MACs returns the total number of multiply-accumulate operations; each
// output channel reduces over CI/Groups input channels.
func (l *Layer) MACs() int64 {
	return int64(l.HO) * int64(l.WO) * int64(l.CO) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S)
}

// InputBytes returns the 8-bit input activation volume (padded extent).
func (l *Layer) InputBytes() int64 {
	return int64(l.IH()) * int64(l.IW()) * int64(l.CI)
}

// WeightBytes returns the 8-bit weight volume.
func (l *Layer) WeightBytes() int64 {
	return int64(l.CO) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S)
}

// OutputBytes returns the 8-bit (re-quantized) output volume.
func (l *Layer) OutputBytes() int64 {
	return int64(l.HO) * int64(l.WO) * int64(l.CO)
}

// Kind classifies the layer following §V-B: 1×1 kernels are point-wise,
// kernels ≥5 are large-kernel, and 3×3 layers split into activation-intensive
// (activations > weights), weight-intensive (weights > activations) and
// common otherwise.
func (l Layer) Kind() Kind {
	switch {
	case l.R == 1 && l.S == 1:
		return PointWise
	case l.R >= 5 || l.S >= 5:
		return LargeKernel
	case l.InputBytes() > 8*l.WeightBytes():
		return ActivationIntensive
	case l.WeightBytes() > 8*l.InputBytes():
		return WeightIntensive
	}
	return Common
}

// String implements fmt.Stringer with a compact shape summary.
func (l Layer) String() string {
	return fmt.Sprintf("%s/%s out=%dx%dx%d ci=%d k=%dx%d s=%dx%d",
		l.Model, l.Name, l.HO, l.WO, l.CO, l.CI, l.R, l.S, l.StrideH, l.StrideW)
}

// TileInputBytes returns the input footprint (bytes) of an output tile of
// ho×wo positions over ci input channels, including the halo overlap.
func (l *Layer) TileInputBytes(ho, wo, ci int) int64 {
	return int64(InExtent(ho, l.R, l.StrideH)) * int64(InExtent(wo, l.S, l.StrideW)) * int64(ci)
}

// Scale returns a copy of the layer re-dimensioned for a different input
// resolution: the output plane is multiplied by factor while channels and
// kernel geometry are preserved. It is used to derive 512×512 detection
// variants from 224×224 classification models (§V-B).
func (l Layer) Scale(factor float64) Layer {
	out := l
	out.HO = max(1, int(float64(l.HO)*factor))
	out.WO = max(1, int(float64(l.WO)*factor))
	return out
}
