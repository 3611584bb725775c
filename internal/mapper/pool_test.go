package mapper

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/obs"
	"nnbaton/internal/workload"
)

// funnel is a snapshot of every Counters field.
type funnel [7]int64

func newFunnelCounters() *Counters {
	return &Counters{
		Generated: &obs.Counter{}, BoundPruned: &obs.Counter{}, StagePruned: &obs.Counter{},
		Evaluated: &obs.Counter{}, FloorsComputed: &obs.Counter{}, HeapPopped: &obs.Counter{},
		Infeasible: &obs.Counter{},
	}
}

func (c *Counters) snapshot() funnel {
	return funnel{c.Generated.Value(), c.BoundPruned.Value(), c.StagePruned.Value(),
		c.Evaluated.Value(), c.FloorsComputed.Value(), c.HeapPopped.Value(), c.Infeasible.Value()}
}

// poolJob is one search of the pooled-scratch test with its exhaustive
// reference and, for the serial path, the funnel of its first run.
type poolJob struct {
	name  string
	l     workload.Layer
	hw    hardware.Config
	cfg   Config
	want  []Option
	first funnel
}

// run searches the job with the given worker count and checks the result
// against the exhaustive reference and, on one worker, the funnel against
// the first run's.
func (j *poolJob) run(workers int) error {
	cfg := j.cfg
	cfg.Workers = workers
	cfg.Counters = newFunnelCounters()
	got := SearchAll(j.l, j.hw, cm, cfg)
	if !reflect.DeepEqual(got, j.want) {
		return fmt.Errorf("%s workers=%d: result differs from the exhaustive reference", j.name, workers)
	}
	if f := cfg.Counters.snapshot(); workers == 1 && f != j.first {
		return fmt.Errorf("%s: funnel %v, first run %v", j.name, f, j.first)
	}
	return nil
}

// TestSearchAllPooledScratchReuse interleaves searches that share pooled
// worker scratch — different layers, hardware points (a degraded ring and a
// mesh among them), objectives and KeepTop values — serially and on
// concurrent goroutines. Every result must equal the exhaustive reference,
// and a one-worker search must repeat its first run's funnel exactly: an
// un-reset tally, a stale tile buffer or a stale topology carried over from
// an earlier search would show in one or the other.
func TestSearchAllPooledScratchReuse(t *testing.T) {
	rn := workload.ResNet50(64)
	layers := []workload.Layer{rn.Layers[0], rn.Layers[10], workload.MobileNetV2(64).Layers[4], workload.VGG16(64).Layers[3]}
	ring := hardware.CaseStudy()
	degraded := ring
	degraded.Chiplets = 3
	mesh := ring
	mesh.Topology = hardware.TopoMesh
	small := ring
	small.Cores, small.Lanes = 4, 16
	small.OL1Bytes, small.AL1Bytes, small.WL1Bytes, small.AL2Bytes = 48*16, 2048, 4096, 64*1024
	hws := []struct {
		name  string
		hw    hardware.Config
		fault hardware.FaultMask
	}{
		{"ring", ring, hardware.FaultMask{}},
		{"degraded", degraded, hardware.FaultMask{Chiplets: 4, Dead: 1 << 1}},
		{"mesh", mesh, hardware.FaultMask{}},
		{"small", small, hardware.FaultMask{}},
	}
	var jobs []*poolJob
	for i, l := range layers {
		for k, h := range hws {
			if (i+k)%2 == 1 {
				continue
			}
			cfg := Config{
				Objective: []Objective{MinEnergy, MinEDP}[(i+k/2)%2],
				KeepTop:   []int{1, 3, 8}[(i+k)%3],
				Fault:     h.fault,
			}
			j := &poolJob{name: fmt.Sprintf("%s/%s on %s obj=%v top=%d", l.Model, l.Name, h.name, cfg.Objective, cfg.KeepTop),
				l: l, hw: h.hw, cfg: cfg}
			j.want = SearchExhaustive(l, h.hw, cm, cfg)
			if len(j.want) == 0 {
				t.Fatalf("%s: no reference options", j.name)
			}
			first := cfg
			first.Workers, first.Counters = 1, newFunnelCounters()
			SearchAll(l, h.hw, cm, first)
			j.first = first.Counters.snapshot()
			jobs = append(jobs, j)
		}
	}

	rng := rand.New(rand.NewSource(20261018))
	for round := 0; round < 3; round++ {
		for _, i := range rng.Perm(len(jobs)) {
			if err := jobs[i].run(1); err != nil {
				t.Fatalf("serial round %d: %v", round, err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4*len(jobs))
	for g := 0; g < 4; g++ {
		order := rng.Perm(len(jobs))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n, i := range order {
				if err := jobs[i].run(1 + (g+n)%2); err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSearchAllWarmAllocs bounds what a warm search allocates once its
// worker scratch comes from the pool: the VGG-16@512 conv6 search of the
// Fig 15 minimum anchor (BenchmarkSearchLayerVGG512MinAnchor) on one worker.
// The bookkeeping of the frontier — heap, groups, tile buffers, analysis —
// is reused; what remains is the result and a few per-search headers. The
// search allocated 1.7 MB while it parked a Mapping per floored probe.
func TestSearchAllWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	l, err := workload.VGG16(512).Layer("conv6")
	if err != nil {
		t.Fatal(err)
	}
	hw := hardware.CaseStudy()
	hw.OL1Bytes, hw.AL1Bytes, hw.WL1Bytes = 48*hw.Lanes, 1024, 2048
	hw.AL2Bytes, hw.OL2Bytes = 32*1024, 16*1024
	cfg := Config{Objective: MinEnergy, KeepTop: 4, Workers: 1}
	if len(SearchAll(l, hw, cm, cfg)) == 0 {
		t.Fatal("no options")
	}
	const runs, limit = 20, 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		SearchAll(l, hw, cm, cfg)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > limit {
		t.Fatalf("warm search allocates %d B on average, bound %d B", per, limit)
	} else {
		t.Logf("warm search allocates %d B on average", per)
	}
}
