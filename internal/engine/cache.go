package engine

import (
	"encoding/json"
	"fmt"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/mapping"
	"nnbaton/internal/noc"
	"nnbaton/internal/sim"
	"nnbaton/internal/workload"
)

// ResultCache is the persistent layer the evaluator consults under its
// in-memory memo cache (see Config.Cache): a byte-oriented key/value store
// with a quarantine channel for entries that decode but fail validation.
// internal/store implements it; the engine never trusts a cached payload —
// anything that fails to decode or revalidate is quarantined and recomputed.
type ResultCache interface {
	// Get returns the stored payload for a key, if present and not
	// quarantined.
	Get(key string) ([]byte, bool)
	// Put stores a payload for a key, clearing any quarantine on it.
	Put(key string, val []byte) error
	// Quarantine poisons a key whose payload failed engine-level validation,
	// so it misses until recomputed and re-Put.
	Quarantine(key string, reason error)
}

// persistSchema versions the cached payload layout. Bumping it orphans every
// old entry (the schema check fails, the key is quarantined and recomputed),
// independent of the store's on-disk format version.
const persistSchema = 1

// persistKey renders the full memoization key as a stable string: the payload
// schema, the canonical layer shape, the complete hardware configuration
// (marshaled field-by-field — Config.String omits OL2, which does affect
// results), and every search-config field that can change the outcome,
// including the fault mask. Two runs agree on the key iff the search is
// result-identical.
func persistKey(k searchKey) string {
	hwJSON, _ := json.Marshal(hardware.Config(k.hw))
	return fmt.Sprintf("search|v%d|shape:%+v|hw:%s|obj%d|keep%d|rot%v|fault:%s",
		persistSchema, k.shape, hwJSON, k.cfg.Objective, k.cfg.KeepTop,
		!k.cfg.DisableRotation, k.cfg.Fault.Key())
}

// diskOption is the persisted form of one search result: the mapping (the
// search's actual decision) plus the energy and cycles the evaluation pipeline
// produced for it, kept for cross-validation on load.
type diskOption struct {
	Map    mapping.Mapping  `json:"map"`
	Energy energy.Breakdown `json:"energy"`
	Cycles int64            `json:"cycles"`
}

// diskEntry is the persisted form of one search: the KeepTop options in
// search order. An empty Opts is a valid negative result — the shape has no
// feasible mapping on the configuration, which is just as expensive to
// rediscover as a positive one.
type diskEntry struct {
	Schema int          `json:"schema"`
	Opts   []diskOption `json:"opts"`
}

// encodeOptions marshals search results for the persistent cache.
func encodeOptions(opts []mapper.Option) ([]byte, error) {
	ent := diskEntry{Schema: persistSchema, Opts: make([]diskOption, len(opts))}
	for i, o := range opts {
		ent.Opts[i] = diskOption{Map: o.Analysis.Map, Energy: o.Energy, Cycles: o.Cycles}
	}
	return json.Marshal(ent)
}

// decodeOptions rebuilds live search results from a persisted payload by
// pushing each stored mapping back through the evaluation pipeline — C³P
// analysis, energy pricing, runtime simulation — and comparing the recomputed
// energy and cycles against the stored ones. Any defect returns an error and
// the caller quarantines the key: an infeasible mapping means a corrupt
// payload, a numeric mismatch means the payload predates a cost-model or
// analysis change, and in both cases recomputing is the only safe answer.
// The recomputation prices KeepTop mappings, not the full search space, so a
// warm hit stays orders of magnitude cheaper than the search it replaces.
func decodeOptions(raw []byte, l workload.Layer, hw hardware.Config, cfg mapper.Config, cm *hardware.CostModel) ([]mapper.Option, error) {
	var ent diskEntry
	if err := json.Unmarshal(raw, &ent); err != nil {
		return nil, fmt.Errorf("engine: cached entry does not decode: %w", err)
	}
	if ent.Schema != persistSchema {
		return nil, fmt.Errorf("engine: cached entry schema %d, want %d", ent.Schema, persistSchema)
	}
	topo, xbar, err := noc.NewInterconnect(hw, cfg.Fault)
	if err != nil {
		return nil, fmt.Errorf("engine: cached entry's interconnect rejects the configuration: %w", err)
	}
	num, den := topo.D2DScale()
	opts := make([]mapper.Option, len(ent.Opts))
	for i, do := range ent.Opts {
		a, err := c3p.Analyze(l, hw, do.Map)
		if err != nil {
			return nil, fmt.Errorf("engine: cached mapping %d is infeasible: %w", i, err)
		}
		tr := a.Traffic()
		phys := tr
		phys.ScaleD2D(num, den)
		br := energy.Price(&phys, &hw, cm)
		res, err := sim.SimulateTrafficOn(topo, xbar, a, &tr)
		if err != nil {
			return nil, fmt.Errorf("engine: cached mapping %d does not simulate: %w", i, err)
		}
		if br != do.Energy || res.Cycles != do.Cycles {
			return nil, fmt.Errorf("engine: cached option %d disagrees with recomputation (stale cost model or corrupt payload)", i)
		}
		opts[i] = mapper.Option{Analysis: a, Energy: br, Cycles: res.Cycles}
	}
	return opts, nil
}

// diskLookup serves a search from the persistent cache: decode, revalidate,
// and on any defect quarantine the key and report a miss so the caller
// recomputes — a poisoned cache degrades to recompute, never to wrong
// answers.
func (e *Evaluator) diskLookup(key searchKey, l workload.Layer, hw hardware.Config, cfg mapper.Config) ([]mapper.Option, bool) {
	c := e.cfg.Cache
	if c == nil {
		return nil, false
	}
	pk := persistKey(key)
	raw, ok := c.Get(pk)
	if !ok {
		e.diskMisses.Add(1)
		return nil, false
	}
	opts, err := decodeOptions(raw, l, hw, cfg, e.cm)
	if err != nil {
		e.diskCorrupt.Add(1)
		e.reg.Event("engine.cache_corrupt", fmt.Sprintf("%s: %v", pk, err))
		c.Quarantine(pk, err)
		return nil, false
	}
	e.diskHits.Add(1)
	return opts, true
}

// diskStore persists a freshly computed search. Failures are counted but
// never fail the search — the cache is an accelerator, not a dependency.
func (e *Evaluator) diskStore(key searchKey, opts []mapper.Option) {
	c := e.cfg.Cache
	if c == nil {
		return
	}
	raw, err := encodeOptions(opts)
	if err != nil {
		return
	}
	if err := c.Put(persistKey(key), raw); err != nil {
		e.reg.Event("engine.cache_put_failed", err.Error())
		return
	}
	e.diskPuts.Add(1)
}
