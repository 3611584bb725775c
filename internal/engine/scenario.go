// Scenario evaluation: the yield question the paper raises but never
// quantifies. A fault scenario degrades the package (hardware.FaultMask →
// Fabric), the fabric is covered by its uniform envelopes
// (hardware.Fabric.Envelopes), each envelope is searched with the existing
// memoized machinery — the mapper.Config.Fault field keys the cache on
// (ShapeKey, HWKey, FaultMask), so healthy and degraded searches never alias
// — and the best envelope by the search objective wins the scenario. The
// zero mask degrades to a single identity envelope, which makes the healthy
// scenario result-identical to EvalModel on the base configuration.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"

	"nnbaton/internal/faults"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/obs"
	"nnbaton/internal/workload"
)

// ScenarioPoint is the evaluation of a model set on one degraded fabric.
type ScenarioPoint struct {
	// Mask is the canonical fault scenario.
	Mask hardware.FaultMask
	// Alive, TotalMACs and FailedUnits summarize the surviving fabric — the
	// x-axis material of a degradation curve.
	Alive       int
	TotalMACs   int
	FailedUnits int
	// Envelope and EnvMask identify the winning uniform sub-fabric: the
	// effective configuration the orchestrator maps onto and the ring-level
	// mask it detours under.
	Envelope hardware.Config
	EnvMask  hardware.FaultMask
	// Evals holds the compact per-model aggregates of the winning envelope,
	// in model order.
	Evals []ModelEval
	// Energy is the summed model energy in pJ (per-bit costs do not derate
	// with frequency). Cycles is the summed nominal-clock cycle count;
	// Seconds is the wall time at the scenario's binned clock.
	Energy  float64
	Cycles  int64
	Seconds float64
	// Err records why the scenario could not be evaluated.
	Err error
	// Replayed marks a point served from the checkpoint journal.
	Replayed bool
	// Attempts counts evaluation attempts (1 without retries).
	Attempts int
}

// EDP returns the scenario's energy-delay product in pJ·s at the derated
// clock.
func (p ScenarioPoint) EDP() float64 { return p.Energy * p.Seconds }

// scenarioRecord is the checkpoint-journal form of one scenario point.
type scenarioRecord struct {
	Mask        hardware.FaultMask `json:"mask"`
	Alive       int                `json:"alive"`
	TotalMACs   int                `json:"totalMACs"`
	FailedUnits int                `json:"failedUnits"`
	Envelope    hardware.Config    `json:"envelope"`
	EnvMask     hardware.FaultMask `json:"envMask"`
	Evals       []ModelEval        `json:"evals,omitempty"`
	Energy      float64            `json:"energy"`
	Cycles      int64              `json:"cycles"`
	Seconds     float64            `json:"seconds"`
	Err         string             `json:"err,omitempty"`
	Attempts    int                `json:"attempts,omitempty"`
}

// scenarioPointKey is the checkpoint key of one scenario point: model set,
// search config, base configuration and the canonical mask text.
func scenarioPointKey(sig string, cfg mapper.Config, base hardware.Config, mask hardware.FaultMask) string {
	return fmt.Sprintf("scenario|%s|obj%d-keep%d-rot%v|%s|%s",
		sig, cfg.Objective, cfg.KeepTop, !cfg.DisableRotation, base.String(), mask.Key())
}

// replayScenarioPoint reconstructs a scenario point from its journal record.
func replayScenarioPoint(raw json.RawMessage) (ScenarioPoint, bool) {
	var rec scenarioRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return ScenarioPoint{}, false
	}
	pt := ScenarioPoint{
		Mask: rec.Mask, Alive: rec.Alive, TotalMACs: rec.TotalMACs,
		FailedUnits: rec.FailedUnits, Envelope: rec.Envelope, EnvMask: rec.EnvMask,
		Evals: rec.Evals, Energy: rec.Energy, Cycles: rec.Cycles, Seconds: rec.Seconds,
		Replayed: true, Attempts: rec.Attempts,
	}
	if rec.Err != "" {
		pt.Err = errors.New(rec.Err)
	}
	return pt, true
}

// scenarioRecordOf converts a completed scenario point to its journal form.
func scenarioRecordOf(pt ScenarioPoint) scenarioRecord {
	rec := scenarioRecord{
		Mask: pt.Mask, Alive: pt.Alive, TotalMACs: pt.TotalMACs,
		FailedUnits: pt.FailedUnits, Envelope: pt.Envelope, EnvMask: pt.EnvMask,
		Evals: pt.Evals, Energy: pt.Energy, Cycles: pt.Cycles, Seconds: pt.Seconds,
		Attempts: pt.Attempts,
	}
	if pt.Err != nil {
		rec.Err = pt.Err.Error()
	}
	return rec
}

// EvalScenario evaluates a model set on one degraded fabric under the
// bounded retry policy: the mask is canonicalized and validated against the
// base configuration, the surviving fabric's uniform envelopes are each
// evaluated through the memoized model path, and the envelope minimizing the
// search objective (ties broken by envelope order, which is deterministic)
// becomes the scenario result. Failures land on the point's Err.
func (e *Evaluator) EvalScenario(ctx context.Context, models []workload.Model, base hardware.Config, mask hardware.FaultMask, cfg mapper.Config) ScenarioPoint {
	cfg = normalize(cfg)
	for attempt := 0; ; attempt++ {
		pt := e.evalScenarioOnce(ctx, models, base, mask, cfg)
		pt.Attempts = attempt + 1
		if pt.Err == nil || ctx.Err() != nil || !IsRetryable(pt.Err) || attempt >= e.cfg.MaxRetries {
			return pt
		}
		e.retries.Add(1)
		if sleepCtx(ctx, e.cfg.backoff(attempt)) != nil {
			return pt
		}
	}
}

// evalScenarioOnce is one panic-isolated scenario evaluation attempt.
func (e *Evaluator) evalScenarioOnce(ctx context.Context, models []workload.Model, base hardware.Config, mask hardware.FaultMask, cfg mapper.Config) (pt ScenarioPoint) {
	pt = ScenarioPoint{Mask: mask}
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Site: "engine.scenario", Op: mask.Key() + " on " + base.String(), Value: r, Stack: debug.Stack()}
			e.recordPanic(pe)
			pt = ScenarioPoint{Mask: pt.Mask, Err: pe}
		}
	}()
	if err := faults.InjectContext(ctx, "engine.scenario", mask.Key()); err != nil {
		pt.Err = err
		return pt
	}
	fab, err := base.Degrade(mask)
	if err != nil {
		pt.Err = err
		return pt
	}
	pt.Mask = fab.Mask // canonical
	pt.Alive = fab.AliveChiplets()
	pt.TotalMACs = fab.TotalMACs()
	pt.FailedUnits = fab.Mask.FailedUnits()
	freq := fab.Mask.FreqScale()

	type candidate struct {
		env      hardware.Envelope
		evals    []ModelEval
		complete bool
		energy   float64
		cycles   int64
	}
	var best *candidate
	var lastErr error
	for _, env := range fab.Envelopes() {
		ecfg := cfg
		ecfg.Fault = env.Mask
		cand := candidate{env: env, complete: true}
		for _, m := range models {
			res, err := e.EvalModel(ctx, m, env.HW, ecfg)
			if err != nil {
				if ctx.Err() != nil {
					pt.Err = ctx.Err()
					return pt
				}
				lastErr = err
				cand.evals = nil
				break
			}
			cand.evals = append(cand.evals, ModelEval{
				Model: m.Name, Energy: res.Energy, Cycles: res.Cycles,
				Mapped: len(res.Layers), Skipped: res.Skipped,
			})
			cand.complete = cand.complete && res.Complete()
			cand.energy += res.Energy.Total()
			cand.cycles += res.Cycles
		}
		if len(cand.evals) != len(models) {
			continue
		}
		if best == nil || scenarioBetter(cand.complete, cand.energy, cand.cycles, freq,
			best.complete, best.energy, best.cycles, cfg.Objective) {
			c := cand
			best = &c
		}
	}
	if best == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("engine: mask %s leaves no mappable envelope of %s", fab.Mask, base.Tuple())
		}
		pt.Err = lastErr
		return pt
	}
	pt.Envelope = best.env.HW
	pt.EnvMask = best.env.Mask
	pt.Evals = best.evals
	pt.Energy = best.energy
	pt.Cycles = best.cycles
	pt.Seconds = hardware.Seconds(best.cycles) / freq
	return pt
}

// scenarioBetter ranks candidate envelopes: complete evaluations (every
// layer of every model mapped) beat incomplete ones, then the search
// objective decides. The package-wide frequency derate scales every
// envelope's runtime identically, so it cannot change the EDP argmin — it is
// applied here only so the comparison matches the reported numbers.
func scenarioBetter(aComplete bool, aEnergy float64, aCycles int64, freq float64,
	bComplete bool, bEnergy float64, bCycles int64, obj mapper.Objective) bool {
	if aComplete != bComplete {
		return aComplete
	}
	if obj == mapper.MinEDP {
		return aEnergy*hardware.Seconds(aCycles)/freq < bEnergy*hardware.Seconds(bCycles)/freq
	}
	return aEnergy < bEnergy
}

// DegradationSweep evaluates a model set across an escalating fault series
// on one base configuration — the graceful-degradation curve. Points run in
// parallel under the bounded worker discipline and share the layer-search
// cache across scenarios (envelopes repeating a (shape, hardware, mask)
// triple never recompute); the result is indexed by the input series, so it
// is byte-identical across worker counts. With a checkpoint journal
// configured, completed points are appended and replayed exactly like
// EvalSweep points. Only context cancellation returns an error.
func (e *Evaluator) DegradationSweep(ctx context.Context, models []workload.Model, base hardware.Config, masks []hardware.FaultMask, cfg mapper.Config) ([]ScenarioPoint, error) {
	cfg = normalize(cfg)
	pts := make([]ScenarioPoint, len(masks))
	track := obs.NewTracker(e.sink, "degradation", len(masks))
	track.SetNote(e.SearchNote)
	sig := modelsSig(models)
	jrn := e.cfg.Journal
	err := ParallelFor(ctx, len(masks), e.cfg.Workers, func(i int) error {
		key := scenarioPointKey(sig, cfg, base, masks[i].Canonical(base))
		if raw, ok := jrn.Lookup(key); ok {
			if pt, ok := replayScenarioPoint(raw); ok {
				pts[i] = pt
				e.replayed.Add(1)
				track.Replayed(pt.Err)
				return nil
			}
		}
		stop := e.reg.Span("engine.scenario_point")
		pt := e.EvalScenario(ctx, models, base, masks[i], cfg)
		stop()
		if pt.Err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		pts[i] = pt
		if err := jrn.Append(key, scenarioRecordOf(pt)); err != nil {
			return err
		}
		track.Done(pt.Err)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}
