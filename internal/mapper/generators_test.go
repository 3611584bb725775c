package mapper

import (
	"slices"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/workload"
)

// The map-deduplicated tile generators the frontier used before its
// generators became append-style and map-free. They are kept only as test
// oracles: the candidate order feeds the walker's enumeration and the Fig 15
// pool order, so the new generators must reproduce them element for element.

func mapTileCandidates(dim, limit int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, n := range splitSeries {
		if n > dim {
			break
		}
		t := ceilDiv(dim, n)
		if t > limit || seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	if len(out) == 0 && dim >= 1 {
		out = append(out, min(dim, max(1, limit)))
	}
	return out
}

func mapPlanarPairs(h, w int) [][2]int {
	seen := make(map[[2]int]bool)
	var out [][2]int
	add := func(th, tw int) {
		if th < 1 || tw < 1 || th > h || tw > w {
			return
		}
		p := [2]int{th, tw}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		add(ceilDiv(h, n), ceilDiv(w, n))
		add(ceilDiv(h, n), w)
		add(h, ceilDiv(w, n))
		add(ceilDiv(h, n*n), w)
	}
	return out
}

func mapCoreTilePairs(l *workload.Layer, hw *hardware.Config, hs, ws int) [][2]int {
	maxElems := hw.OL1Bytes / (3 * hw.Lanes)
	if maxElems < 1 {
		maxElems = 1
	}
	ci := min(hw.Vector, l.CI)
	fits := func(th, tw int) bool {
		if th*tw > maxElems {
			return false
		}
		return 2*l.TileInputBytes(th, tw, ci) <= int64(hw.AL1Bytes)
	}
	seen := make(map[[2]int]bool)
	var out [][2]int
	add := func(th, tw int) {
		th, tw = min(th, hs), min(tw, ws)
		if th < 1 || tw < 1 || !fits(th, tw) {
			return
		}
		p := [2]int{th, tw}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for s := 8; s >= 1; s-- {
		add(s, s)
	}
	add(1, maxElems)
	add(1, min(maxElems, ws))
	add(2, maxElems/2)
	add(1, 4)
	return out
}

// genDims is the dimension grid the generator tests sweep: every extent up
// to 70 and the larger planar and channel extents of the zoo at 224 and 512.
func genDims() []int {
	var dims []int
	for d := 0; d <= 70; d++ {
		dims = append(dims, d)
	}
	return append(dims, 96, 112, 128, 224, 256, 512, 1000, 1024, 2048)
}

// TestTileGeneratorsMatchMapOracles pins the map-free generators to the map
// oracles over a grid of dimensions and limits, and shows that appending to
// a non-empty buffer neither reads nor disturbs what the buffer already
// holds (deduplication spans only the appended range).
func TestTileGeneratorsMatchMapOracles(t *testing.T) {
	dims := genDims()
	prefixInt := []int{1, 2, 3}
	prefixPair := [][2]int{{1, 1}, {2, 2}}
	for _, dim := range dims {
		for _, limit := range []int{0, 1, 2, 7, dim / 2, dim, dim + 3} {
			want := mapTileCandidates(dim, limit)
			if got := tileCandidates(nil, dim, limit); !slices.Equal(got, want) {
				t.Fatalf("tileCandidates(%d, %d) = %v, oracle %v", dim, limit, got, want)
			}
			buf := append([]int(nil), prefixInt...)
			got := tileCandidates(buf, dim, limit)
			if !slices.Equal(got[:len(prefixInt)], prefixInt) || !slices.Equal(got[len(prefixInt):], want) {
				t.Fatalf("tileCandidates(%v, %d, %d) = %v, oracle %v", prefixInt, dim, limit, got, want)
			}
		}
	}
	for _, h := range dims {
		for _, w := range dims {
			want := mapPlanarPairs(h, w)
			if got := planarPairs(nil, h, w); !slices.Equal(got, want) {
				t.Fatalf("planarPairs(%d, %d) = %v, oracle %v", h, w, got, want)
			}
			buf := append([][2]int(nil), prefixPair...)
			got := planarPairs(buf, h, w)
			if !slices.Equal(got[:len(prefixPair)], prefixPair) || !slices.Equal(got[len(prefixPair):], want) {
				t.Fatalf("planarPairs(%v, %d, %d) = %v, oracle %v", prefixPair, h, w, got, want)
			}
		}
	}
}

// TestCoreTilePairsMatchMapOracle pins coreTilePairs to its map oracle at
// every Table II core buffer allocation (lanes × O-L1 per lane × A-L1 ×
// vector width), for zoo layers of different kernels and strides, over a
// grid of per-core regions.
func TestCoreTilePairsMatchMapOracle(t *testing.T) {
	layers := []workload.Layer{
		{HO: 56, WO: 56, CO: 64, CI: 64, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
		{HO: 112, WO: 112, CO: 64, CI: 3, R: 7, S: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3, Groups: 1},
		{HO: 14, WO: 14, CO: 1024, CI: 256, R: 1, S: 1, StrideH: 1, StrideW: 1, Groups: 1},
		{HO: 28, WO: 28, CO: 144, CI: 144, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 144},
	}
	regions := []int{1, 2, 3, 5, 7, 8, 13, 14, 28, 56, 128}
	if testing.Short() {
		regions = []int{1, 3, 8, 14, 56}
	}
	prefix := [][2]int{{3, 3}, {1, 4}}
	calls := 0
	for _, lanes := range []int{2, 4, 8, 16} {
		for _, ol1 := range []int{48, 96, 144} {
			for _, al1KB := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
				for _, vector := range []int{2, 4, 8, 16} {
					hw := hardware.CaseStudy()
					hw.Lanes, hw.Vector = lanes, vector
					hw.OL1Bytes, hw.AL1Bytes = ol1*lanes, al1KB*1024
					for li := range layers {
						l := &layers[li]
						for _, hs := range regions {
							for _, ws := range regions {
								want := mapCoreTilePairs(l, &hw, hs, ws)
								got := coreTilePairs(nil, l, &hw, hs, ws)
								buf := append([][2]int(nil), prefix...)
								appended := coreTilePairs(buf, l, &hw, hs, ws)
								if !slices.Equal(got, want) || !slices.Equal(appended[:len(prefix)], prefix) ||
									!slices.Equal(appended[len(prefix):], want) {
									t.Fatalf("layer %d, lanes %d, O-L1 %d B/lane, A-L1 %d KB, vector %d, region %dx%d: "+
										"coreTilePairs = %v, appended to %v = %v, oracle %v",
										li, lanes, ol1, al1KB, vector, hs, ws, got, prefix, appended, want)
								}
								calls++
							}
						}
					}
				}
			}
		}
	}
	if calls == 0 {
		t.Fatal("no generator call compared")
	}
}
