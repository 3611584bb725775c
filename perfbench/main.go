// Command perfbench is the end-to-end benchmark of NN-Baton's pre-design
// flow: a full dse.Explore sweep in one process, and the same kind of sweep
// run as a fleet study over loopback HTTP. It drives the program only through
// its exported functions, checks every result it times, and prints one JSON
// result line last:
//
//	perfbench --workload explore-resnet50 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it times the workload and reports the end-to-end metrics;
// with --trace 1 it makes one traced pass and reports the per-layer metrics
// (see README.md for the metric definitions and the layer map).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// totalMACs and engineWorkers are fixed for every workload: the paper's
	// 2048-MAC budget, evaluated by two engine workers in one process.
	totalMACs     = 2048
	engineWorkers = 2
	// setupReps is how many times each run repeats its set-up; setup_s is
	// the median.
	setupReps = 21
)

// spec is one named workload.
type spec struct {
	model string
	res   int
	fleet bool
	// iterSeconds is what one iteration's timed part took when this
	// benchmark was added (2-core Xeon, 2.1 GHz). A run makes
	// ceil(--seconds / iterSeconds) iterations, so it measures for about
	// --seconds there, and always measures the same work: a faster program
	// gets a shorter run, not a different number of samples.
	iterSeconds float64
}

var workloads = map[string]spec{
	"explore-resnet50":  {model: "resnet50", res: 224, iterSeconds: 18},
	"explore-vgg16-512": {model: "vgg16", res: 512, iterSeconds: 12},
	"fleet-darknet19":   {model: "darknet19", res: 224, fleet: true, iterSeconds: 10},
}

// areaFor maps a seed to the chiplet area limit of the study. The limit only
// decides which points meet the constraint and which is best; every seed
// sweeps exactly the same points, so the work measured does not depend on it.
func areaFor(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return 1.5 + 0.1*float64(rng.Intn(11)) // 1.5 … 2.5 mm²
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one invocation's operations, check failures and metrics.
type run struct {
	name      string
	spec      spec
	seed      int64
	area      float64
	iters     int // timed iterations
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// check records a correctness failure when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	name := flag.String("workload", "", "workload name: explore-resnet50 | explore-vgg16-512 | fleet-darknet19")
	seed := flag.Int64("seed", 1, "input seed (picks the area limit and the sampled check points)")
	seconds := flag.Int("seconds", 25, "seconds to measure for")
	trace := flag.Int("trace", 0, "1 = one traced pass reporting per-layer metrics")
	flag.Parse()
	sp, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{name: *name, spec: sp, seed: *seed, area: areaFor(*seed),
		iters: max(1, int(math.Ceil(float64(*seconds)/sp.iterSeconds))), metrics: map[string]metric{}}
	fmt.Printf("workload %s: %s@%d, %d MACs, area %.1f mm², seed %d\n", r.name, sp.model, sp.res, totalMACs, r.area, r.seed)

	ctx := context.Background()
	var err error
	switch {
	case sp.fleet && *trace == 1:
		err = traceFleet(ctx, r)
	case sp.fleet:
		err = timeFleet(ctx, r)
	case *trace == 1:
		err = traceExplore(ctx, r)
	default:
		err = timeExplore(ctx, r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if nonRepeating[n] {
			note = "  (varies run to run; do not claim gains on it)"
		}
		fmt.Printf("  %-28s %16.6f %s%s\n", n, r.metrics[n].Value, r.metrics[n].Unit, note)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics})
	if err != nil { // a NaN or infinite metric
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// nonRepeating marks the per-layer counts that differ between runs of the
// same seed: the search funnel depends on which concurrent search publishes
// its incumbent first, warm-start hits on which neighbor finished first, the
// fleet's request count on polling cadence, and the journals' size on the
// timestamps in the study journal. Timings never repeat.
var nonRepeating = map[string]bool{
	"engine.warm_start_hits":   true,
	"engine.warm_start_misses": true,
	"mapper.generated":         true,
	"mapper.evaluated":         true,
	"mapper.floors":            true,
	"mapper.heap_popped":       true,
	"mapper.evaluated_frac":    true,
	"fleet.http_requests":      true,
	"ckpt.journal_bytes":       true,
}

// usage measures one iteration's timed part: the process's CPU time and
// allocation total at its start, and a sampler of its resident set.
type usage struct {
	cpu   time.Duration
	alloc uint64
	stop  chan struct{}
	peak  chan int64 // peak resident bytes, sent once the sampler stops
}

// rssEvery is the resident-set sampling period. A peak shorter than it can
// be missed; the sweeps' heaps grow and shrink over far longer spans.
const rssEvery = 5 * time.Millisecond

func startUsage() *usage {
	u := &usage{stop: make(chan struct{}), peak: make(chan int64, 1)}
	u.cpu, u.alloc = cpuAlloc()
	go func() {
		peak := residentBytes()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-u.stop:
				u.peak <- max(peak, residentBytes())
				return
			case <-t.C:
				peak = max(peak, residentBytes())
			}
		}
	}()
	return u
}

// since stops the sampler and returns the CPU seconds, the allocated MB
// (10⁶ bytes) and the peak resident MiB since startUsage.
func (u *usage) since() (cpuS, allocMB, rssMB float64) {
	close(u.stop)
	peak := <-u.peak
	cpu, alloc := cpuAlloc()
	return (cpu - u.cpu).Seconds(), float64(alloc-u.alloc) / 1e6, float64(peak) / (1 << 20)
}

func cpuAlloc() (time.Duration, uint64) {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck — cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ms.TotalAlloc
}

// residentBytes reads the process's resident set size from
// /proc/self/statm, falling back to the lifetime peak getrusage reports.
func residentBytes() int64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck — cannot fail for RUSAGE_SELF
	return ru.Maxrss << 10                      // Linux reports KiB
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// series collects one value per timed iteration.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// record adds one timed iteration and prints it.
func (s series) record(cold, warm time.Duration, cpu, alloc, rss float64) {
	fmt.Printf("iteration %d: sweep %.3f s, warm sweep %.3f s, cpu %.2f s, alloc %.0f MB, peak rss %.1f MiB\n",
		len(s["sweep_s"]), cold.Seconds(), warm.Seconds(), cpu, alloc, rss)
	s.add("sweep_s", cold.Seconds())
	s.add("warm_sweep_s", warm.Seconds())
	s.add("cpu_s", cpu)
	s.add("alloc_mb", alloc)
	s.add("max_rss_mb", rss)
}

// report sets each series' median as a metric.
func (r *run) report(s series, units map[string]string) {
	for name, xs := range s {
		r.set(name, median(xs), units[name])
	}
}

var endToEndUnits = map[string]string{
	"sweep_s": "s", "warm_sweep_s": "s", "cpu_s": "s", "alloc_mb": "MB", "max_rss_mb": "MB",
}

// finishEndToEnd records the process-wide metrics of a timed run.
func (r *run) finishEndToEnd(s series, setups []float64) {
	r.report(s, endToEndUnits)
	r.set("setup_s", median(setups), "s")
	fmt.Printf("timed %d iteration(s), %d set-ups\n", len(s["sweep_s"]), len(setups))
}
