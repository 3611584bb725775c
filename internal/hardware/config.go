// Package hardware models the three-level multichip accelerator of NN-Baton
// (§III): a package of N_P chiplets on a directional ring, each chiplet with
// N_C cores, a shared activation buffer (A-L2) and a global output buffer
// (O-L2), and each core a weight-stationary PE array of L lanes of P-size
// vector MACs with A-L1/W-L1 SRAMs and an O-L1 register file.
//
// It also provides the 16 nm energy/area cost model of Table I and §V-A and
// the linear SRAM/RF overhead model of Fig 10.
package hardware

import "fmt"

// Config describes one hardware implementation point: the computation
// resources and the per-level memory footprint (Table II dimensions).
type Config struct {
	// Computation resources.
	Chiplets int // N_P: chiplets per package (ring-connected)
	Cores    int // N_C: cores per chiplet
	Lanes    int // L: vector-MAC lanes per core (output-channel parallelism)
	Vector   int // P: vector-MAC size (input-channel parallelism)

	// Memory footprint. O-L1/A-L1/W-L1 are per core; A-L2/O-L2 per chiplet.
	OL1Bytes int // output register file (24-bit partial sums)
	AL1Bytes int // local activation buffer (double-buffered SRAM)
	WL1Bytes int // local weight buffer (double-buffered SRAM, poolable)
	AL2Bytes int // shared chiplet activation buffer
	OL2Bytes int // chiplet output collection buffer

	// Topology is the on-package interconnect fabric. The zero value is the
	// paper's directional ring, so legacy configurations are unaffected.
	Topology Topology
}

// MACsPerCore returns L×P.
func (c *Config) MACsPerCore() int { return c.Lanes * c.Vector }

// MACsPerChiplet returns N_C×L×P.
func (c *Config) MACsPerChiplet() int { return c.Cores * c.MACsPerCore() }

// TotalMACs returns the package-wide MAC count.
func (c *Config) TotalMACs() int { return c.Chiplets * c.MACsPerChiplet() }

// Validate reports an error for non-positive or inconsistent resources.
func (c Config) Validate() error {
	switch {
	case c.Chiplets <= 0 || c.Cores <= 0 || c.Lanes <= 0 || c.Vector <= 0:
		return fmt.Errorf("hardware: non-positive computation resource in %+v", c)
	case c.OL1Bytes <= 0 || c.AL1Bytes <= 0 || c.WL1Bytes <= 0 || c.AL2Bytes <= 0:
		return fmt.Errorf("hardware: non-positive buffer size in %+v", c)
	case c.OL2Bytes < 0:
		return fmt.Errorf("hardware: negative O-L2 size in %+v", c)
	}
	return c.Topology.Validate()
}

// String renders the four-element computation tuple of Fig 14,
// (chiplet, core, lane, vector-size), plus the memory sizes. Non-ring
// topologies append an "@mesh"/"@torus" suffix; the ring renders exactly as
// before the topology axis existed, so historical checkpoint-journal keys
// (which embed this text) keep matching.
func (c Config) String() string {
	return fmt.Sprintf("%s (O-L1 %dB, A-L1 %dB, W-L1 %dB, A-L2 %dB)",
		c.Tuple(), c.OL1Bytes, c.AL1Bytes, c.WL1Bytes, c.AL2Bytes)
}

// Tuple renders just the computation allocation, e.g. "4-4-16-8", with the
// topology suffix for non-ring fabrics ("4-4-16-8@mesh").
func (c Config) Tuple() string {
	t := fmt.Sprintf("%d-%d-%d-%d", c.Chiplets, c.Cores, c.Lanes, c.Vector)
	if c.Topology != TopoRing {
		t += "@" + c.Topology.String()
	}
	return t
}

// CaseStudy returns the fixed configuration of §VI-A1: 4 chiplets, 8 cores,
// 8 lanes of 8-size vector MAC, 1.5 KB O-L1, 800 B A-L1, 18 KB W-L1 and
// 64 KB A-L2.
func CaseStudy() Config {
	return Config{
		Chiplets: 4, Cores: 8, Lanes: 8, Vector: 8,
		OL1Bytes: 1536, AL1Bytes: 800, WL1Bytes: 18 * 1024,
		AL2Bytes: 64 * 1024, OL2Bytes: 32 * 1024,
	}
}

// Proportional buffer-allocation ratios, expressed in bytes per MAC. The
// defaults reproduce the §VI-A case-study configuration exactly and are used
// by the Fig 14 granularity study, which assembles "the memory hierarchy with
// buffer sizes proportional to the computation resources".
type Proportion struct {
	OL1PerMAC float64 // bytes of O-L1 RF per core MAC
	AL1PerMAC float64 // bytes of A-L1 per core MAC
	WL1PerMAC float64 // bytes of W-L1 per core MAC
	AL2PerMAC float64 // bytes of A-L2 per chiplet MAC
	OL2PerMAC float64 // bytes of O-L2 per chiplet MAC
}

// DefaultProportion matches the §VI-A case study (64 MACs/core, 512/chiplet).
func DefaultProportion() Proportion {
	return Proportion{
		OL1PerMAC: 1536.0 / 64,   // 24 B/MAC
		AL1PerMAC: 800.0 / 64,    // 12.5 B/MAC
		WL1PerMAC: 18432.0 / 64,  // 288 B/MAC
		AL2PerMAC: 65536.0 / 512, // 128 B/MAC
		OL2PerMAC: 32768.0 / 512, // 64 B/MAC
	}
}

// WithProportionalMemory fills in the buffer sizes of a computation-only
// configuration from per-MAC ratios.
func (c Config) WithProportionalMemory(p Proportion) Config {
	perCore := float64(c.MACsPerCore())
	perChip := float64(c.MACsPerChiplet())
	c.OL1Bytes = int(p.OL1PerMAC * perCore)
	c.AL1Bytes = int(p.AL1PerMAC * perCore)
	c.WL1Bytes = int(p.WL1PerMAC * perCore)
	c.AL2Bytes = int(p.AL2PerMAC * perChip)
	c.OL2Bytes = int(p.OL2PerMAC * perChip)
	return c
}
