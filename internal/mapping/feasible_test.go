package mapping

import (
	"math/rand"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/workload"
)

// randomMapping draws from a distribution wide enough to hit every reject
// branch of Validate as well as plenty of accepted mappings.
func randomMapping(rng *rand.Rand, l workload.Layer, hw hardware.Config) Mapping {
	spatials := []Spatial{SpatialC, SpatialP, SpatialH}
	pat := func(n int) Pattern {
		ps := GridPatterns(n)
		if len(ps) == 0 || rng.Intn(8) == 0 {
			return Pattern{Rows: rng.Intn(4) + 1, Cols: rng.Intn(4) + 1}
		}
		return ps[rng.Intn(len(ps))]
	}
	m := Mapping{
		PackageSpatial:  spatials[rng.Intn(2)],
		PackagePattern:  pat(hw.Chiplets),
		PackageTemporal: Temporal(rng.Intn(2)),
		ChipletSpatial:  spatials[rng.Intn(3)],
		ChipletCSplit:   []int{1, 2, 4, hw.Cores / 2, hw.Cores, hw.Cores * 2}[rng.Intn(6)],
		ChipletPattern:  pat(hw.Cores),
		ChipletTemporal: Temporal(rng.Intn(2)),
		COt:             rng.Intn(l.CO+8) + 1,
		HOt:             rng.Intn(l.HO+4) + 1,
		WOt:             rng.Intn(l.WO+4) + 1,
		HOc:             rng.Intn(12) + 1,
		WOc:             rng.Intn(12) + 1,
		Rotate:          rng.Intn(2) == 0,
	}
	// Bias half the draws toward satisfiable structural constraints so the
	// accept paths get exercised too, leaving the rest fully random.
	if rng.Intn(2) == 0 {
		switch m.ChipletSpatial {
		case SpatialC:
			m.ChipletCSplit, m.ChipletPattern = hw.Cores, Pattern{Rows: 1, Cols: 1}
		case SpatialP:
			m.ChipletCSplit = 1
		}
		m.COt = max(m.COt, m.ChipletCSplit)
		m.HOt = max(m.HOt, m.ChipletPattern.Rows)
		m.WOt = max(m.WOt, m.ChipletPattern.Cols)
		m.HOc = rng.Intn(5) + 1
		m.WOc = rng.Intn(5) + 1
	}
	return m
}

// TestFeasibleMatchesValidate pins the lockstep contract of the allocation-
// free fast path: for valid layers and hardware, Feasible must accept exactly
// the mappings Validate accepts.
func TestFeasibleMatchesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	layers := []workload.Layer{
		{Model: "t", Name: "conv", HO: 56, WO: 56, CO: 64, CI: 64, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{Model: "t", Name: "wide", HO: 14, WO: 14, CO: 512, CI: 256, R: 1, S: 1, StrideH: 1, StrideW: 1},
		{Model: "t", Name: "dw", HO: 28, WO: 28, CO: 96, CI: 96, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 96},
		{Model: "t", Name: "tiny", HO: 7, WO: 7, CO: 8, CI: 16, R: 1, S: 1, StrideH: 1, StrideW: 1},
	}
	hws := []hardware.Config{hardware.CaseStudy()}
	single := hardware.CaseStudy()
	single.Chiplets = 1
	hws = append(hws, single)
	small := hardware.CaseStudy()
	small.AL1Bytes = 200
	small.WL1Bytes = 512
	hws = append(hws, small)

	accepted := 0
	for _, l := range layers {
		for _, hw := range hws {
			for i := 0; i < 4000; i++ {
				m := randomMapping(rng, l, hw)
				err := m.Validate(l, hw)
				if got := m.Feasible(&l, &hw); got != (err == nil) {
					t.Fatalf("Feasible=%v but Validate err=%v for %+v on %s/%s @ %s",
						got, err, m, l.Model, l.Name, hw.Tuple())
				}
				if err == nil {
					accepted++
				}
			}
		}
	}
	if accepted < 100 {
		t.Fatalf("only %d of the random mappings were valid; distribution too narrow", accepted)
	}

	// Needs is the memory-sweep form of the same contract: checked once per
	// mapping, it must predict Validate at every Table II buffer allocation
	// (O-L1 48–144 B/lane, A-L1 1–128 KB, W-L1 2–256 KB, A-L2 32–256 KB).
	kb := func(xs ...int) []int {
		for i := range xs {
			xs[i] *= 1024
		}
		return xs
	}
	ol1PerLane, al1s, wl1s, al2s := []int{48, 96, 144}, kb(1, 2, 4, 8, 16, 32, 64, 128),
		kb(2, 4, 8, 16, 32, 64, 96, 144, 256), kb(32, 64, 96, 128, 192, 256)
	fits, rotationBound := 0, 0
	for _, l := range layers {
		for _, comp := range hws {
			for i := 0; i < 60; i++ {
				m := randomMapping(rng, l, comp)
				if i%2 == 0 {
					// Rotating P-type splits carry the ⌈chunk / pool⌉ W-L1 bound.
					m.PackageSpatial, m.Rotate = SpatialP, true
				}
				n, ok := m.Needs(&l, &comp)
				for _, ol1 := range ol1PerLane {
					for _, al1 := range al1s {
						for _, wl1 := range wl1s {
							for _, al2 := range al2s {
								hw := comp
								hw.OL1Bytes, hw.AL1Bytes, hw.WL1Bytes = ol1*comp.Lanes, al1, wl1
								hw.AL2Bytes, hw.OL2Bytes = al2, al2/2
								err := m.Validate(l, hw)
								if got := ok && n.Fits(&hw); got != (err == nil) {
									t.Fatalf("Needs ok=%v %+v fits=%v but Validate err=%v for %+v on %s/%s @ %s",
										ok, n, got, err, m, l.Model, l.Name, hw)
								}
								if err == nil {
									fits++
								}
								if ok && m.Rotate && int64(wl1) >= m.wl1Need(&l, &hw) && int64(wl1) < n.WL1 {
									rotationBound++
								}
							}
						}
					}
				}
			}
		}
	}
	if fits < 1000 || rotationBound < 100 {
		t.Fatalf("buffer sweep too narrow: %d fitting points, %d decided by the rotating-chunk bound",
			fits, rotationBound)
	}
}

// TestLevelChecksSound pins the contract the mapper's frontier relies on when
// it drops a whole prefix: whenever a level-wise check rejects, Feasible
// rejects every completion of that prefix. A completion keeps the fields the
// check reads (none for StreamingWL1Fits; the split fields and COt for
// ChipletTileFits; the split fields, HOt and WOt for PlanarTileFits) and
// draws every other field at random. The buffers are sized so that each
// check rejects often, and the test counts the structurally valid
// completions that only the buffers reject, so it cannot pass vacuously.
func TestLevelChecksSound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	layers := []workload.Layer{
		{Model: "t", Name: "conv", HO: 56, WO: 56, CO: 64, CI: 64, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{Model: "t", Name: "deep", HO: 32, WO: 32, CO: 512, CI: 512, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{Model: "t", Name: "wide", HO: 14, WO: 14, CO: 512, CI: 256, R: 1, S: 1, StrideH: 1, StrideW: 1},
		{Model: "t", Name: "dw", HO: 28, WO: 28, CO: 96, CI: 96, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 96},
	}
	// tight mirrors the smallest Fig 15 memory point on a 4-8-8-8 tuple;
	// starved makes the streaming W-L1 chunk of every 3×3 layer miss.
	tight := hardware.CaseStudy()
	tight.OL1Bytes, tight.AL1Bytes, tight.WL1Bytes = 48*tight.Lanes, 1024, 2048
	tight.AL2Bytes, tight.OL2Bytes = 32*1024, 16*1024
	starved := tight
	starved.WL1Bytes = 1024
	hws := []hardware.Config{hardware.CaseStudy(), tight, starved}

	type level struct {
		name string
		fits func(m *Mapping, l *workload.Layer, hw *hardware.Config) bool
		// keep copies the fields the check reads from the prefix.
		keep func(prefix Mapping, c *Mapping)
	}
	keepSplit := func(p Mapping, c *Mapping) {
		c.PackageSpatial, c.Rotate, c.ChipletPattern = p.PackageSpatial, p.Rotate, p.ChipletPattern
	}
	levels := []level{
		{"StreamingWL1Fits",
			func(_ *Mapping, l *workload.Layer, hw *hardware.Config) bool { return StreamingWL1Fits(l, hw) },
			func(Mapping, *Mapping) {}},
		{"ChipletTileFits", (*Mapping).ChipletTileFits,
			func(p Mapping, c *Mapping) { keepSplit(p, c); c.COt = p.COt }},
		{"PlanarTileFits", (*Mapping).PlanarTileFits,
			func(p Mapping, c *Mapping) { keepSplit(p, c); c.HOt, c.WOt = p.HOt, p.WOt }},
	}
	for _, lv := range levels {
		rejected, bufferOnly := 0, 0
		for _, l := range layers {
			for _, hw := range hws {
				for i := 0; i < 400; i++ {
					prefix := randomMapping(rng, l, hw)
					prefix.Rotate = true
					if i%2 == 0 {
						prefix.PackageSpatial = SpatialP
					}
					if lv.fits(&prefix, &l, &hw) {
						continue
					}
					rejected++
					for j := 0; j < 40; j++ {
						c := randomMapping(rng, l, hw)
						lv.keep(prefix, &c)
						if c.Feasible(&l, &hw) {
							t.Fatalf("%s rejects %+v but Feasible accepts its completion %+v on %s/%s @ %s",
								lv.name, prefix, c, l.Model, l.Name, hw)
						}
						if _, ok := c.Needs(&l, &hw); ok {
							bufferOnly++
						}
					}
				}
			}
		}
		if rejected < 50 || bufferOnly < 200 {
			t.Errorf("%s: %d rejected prefixes, %d structurally valid completions; draw too narrow",
				lv.name, rejected, bufferOnly)
		}
	}
}

// TestCompareTotalOrder spot-checks Compare's contract: reflexive zero,
// antisymmetric, and nonzero for distinct mappings.
func TestCompareTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := workload.Layer{Model: "t", Name: "c", HO: 28, WO: 28, CO: 128, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	hw := hardware.CaseStudy()
	ms := make([]Mapping, 64)
	for i := range ms {
		ms[i] = randomMapping(rng, l, hw)
	}
	for i := range ms {
		if Compare(&ms[i], &ms[i]) != 0 {
			t.Fatalf("Compare(m, m) != 0 for %+v", ms[i])
		}
		for j := range ms {
			c, r := Compare(&ms[i], &ms[j]), Compare(&ms[j], &ms[i])
			if c != -r {
				t.Fatalf("Compare not antisymmetric: %d vs %d", c, r)
			}
			if i != j && ms[i] != ms[j] && c == 0 {
				t.Fatalf("distinct mappings compare equal:\n%+v\n%+v", ms[i], ms[j])
			}
		}
	}
}
