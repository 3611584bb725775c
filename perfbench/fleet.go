package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"nnbaton/internal/dse"
	"nnbaton/internal/engine"
	"nnbaton/internal/fleet"
	"nnbaton/internal/obs"
	"nnbaton/internal/store"
)

const (
	fleetShards = 4
	// workerTTL sets the worker's heartbeat and task-poll period to a third
	// of it, small next to a study. It must stay well above the time the
	// coordinator takes to merge a study's journals (about 0.3 s here): the
	// worker sends no heartbeat while it waits on its done report, and the
	// coordinator would expire it.
	workerTTL = time.Second
	// statusPoll is how often the client polls a submitted study.
	statusPoll = 10 * time.Millisecond
	// studyTimeout bounds one study, so a stuck one fails the run instead
	// of hanging it.
	studyTimeout = 150 * time.Second
)

// dataRoot holds the runs' data directories, inside the working directory.
const dataRoot = ".bench_build/perfbench-data"

// fleetEnv is an in-process coordinator serving loopback HTTP with one
// worker, on its own data directory.
type fleetEnv struct {
	dir        string
	coord      *fleet.Coordinator
	srv        *http.Server
	base       string
	client     *http.Client
	cancel     context.CancelFunc
	workerDone chan error
	// replies and non2xx count every HTTP reply the coordinator sent.
	replies, non2xx atomic.Int64
}

// statusWriter records the status code of a reply.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// startFleet opens a coordinator on a fresh data directory, serves it on a
// loopback port, and starts one worker; it returns once the worker has
// registered. reg (nil for untraced runs) is shared by coordinator and
// worker, so /metrics shows the engine and store counters too.
func startFleet(dir string, reg *obs.Registry) (*fleetEnv, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	coord, err := fleet.Open(fleet.Options{DataDir: dir, WorkerTTL: workerTTL, Registry: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	e := &fleetEnv{dir: dir, coord: coord, base: "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 30 * time.Second}, workerDone: make(chan error, 1)}
	h := coord.Handler()
	e.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		e.replies.Add(1)
		if sw.code < 200 || sw.code > 299 {
			e.non2xx.Add(1)
		}
	})}
	go e.srv.Serve(ln) //nolint:errcheck — ends with Close
	w, err := fleet.NewWorker(fleet.WorkerOptions{Coordinator: e.base, Name: "w1",
		EngineWorkers: engineWorkers, Registry: reg})
	if err != nil {
		e.srv.Close()
		coord.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	go func() { e.workerDone <- w.Run(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		var ready struct{ Workers int }
		if e.get("/readyz", &ready) == nil && ready.Workers > 0 {
			return e, nil
		}
		if time.Now().After(deadline) {
			e.stop()
			return nil, errors.New("fleet worker did not register within 10 s")
		}
	}
}

// stop ends the worker, drains and closes the coordinator, closes the
// server and removes the data directory. The server is closed, not shut
// down: nothing is in flight by then, and Shutdown would wait seconds for
// any connection a client dialed but never used.
func (e *fleetEnv) stop() error {
	e.cancel()
	<-e.workerDone
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.coord.Drain(ctx)
	if cerr := e.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// get fetches a JSON document into out.
func (e *fleetEnv) get(path string, out any) error {
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// studyRun is one study's timeline as the client saw it.
type studyRun struct {
	total, submit, queueWait, fetch time.Duration
	state                           fleet.State
	result                          []byte
}

// runStudy submits a study, polls it to a terminal state and fetches the
// merged result of a done study.
func (e *fleetEnv) runStudy(spec fleet.StudySpec) (studyRun, error) {
	var sr studyRun
	body, err := json.Marshal(spec)
	if err != nil {
		return sr, err
	}
	t0 := time.Now()
	resp, err := e.client.Post(e.base+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		return sr, err
	}
	var sub struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	sr.submit = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return sr, fmt.Errorf("submit: %s (%v)", resp.Status, err)
	}
	for {
		var st fleet.StudyStatus
		if err := e.get("/v1/studies/"+sub.ID, &st); err != nil {
			return sr, err
		}
		if st.State != fleet.StateQueued && sr.queueWait == 0 {
			sr.queueWait = time.Since(t0)
		}
		if st.State.Terminal() {
			sr.state = st.State
			break
		}
		if time.Since(t0) > studyTimeout {
			return sr, fmt.Errorf("study %s still %s after %v", sub.ID, st.State, studyTimeout)
		}
		time.Sleep(statusPoll)
	}
	if sr.state == fleet.StateDone {
		t1 := time.Now()
		resp, err := e.client.Get(e.base + "/v1/studies/" + sub.ID + "/result")
		if err != nil {
			return sr, err
		}
		sr.result, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return sr, fmt.Errorf("result: %s (%v)", resp.Status, err)
		}
		sr.fetch = time.Since(t1)
	}
	sr.total = time.Since(t0)
	return sr, nil
}

func (r *run) studySpec() fleet.StudySpec {
	return fleet.StudySpec{Model: r.spec.model, Res: r.spec.res, MACs: totalMACs, AreaMM2: r.area,
		Shards: fleetShards, DeadlineSec: studyTimeout.Seconds()}
}

// coldWarm runs the study on the environment's empty data directory, then
// resubmits it unchanged, and counts the operations: each study (failed
// unless done) and each HTTP reply (failed unless 2xx).
func (r *run) coldWarm(e *fleetEnv) (cold, warm studyRun, err error) {
	if cold, err = e.runStudy(r.studySpec()); err != nil {
		return
	}
	if warm, err = e.runStudy(r.studySpec()); err != nil {
		return
	}
	r.attempted += 2 + int(e.replies.Load())
	r.failed += int(e.non2xx.Load())
	for _, s := range []studyRun{cold, warm} {
		if s.state != fleet.StateDone {
			r.failed++
			r.check(false, "study ended %s, not done", s.state)
		}
	}
	r.check(bytes.Equal(cold.result, warm.result), "warm study result differs from the cold one (%d vs %d bytes)",
		len(cold.result), len(warm.result))
	return
}

// timeFleet is the timed fleet workload: per iteration, a fresh data
// directory and fleet, the cold study (sweep_s) and its unchanged
// resubmission served by the persistent store (warm_sweep_s).
func timeFleet(ctx context.Context, r *run) error {
	dir := filepath.Join(dataRoot, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	var setups []float64
	start := func() (*fleetEnv, error) {
		t0 := time.Now()
		e, err := startFleet(dir, nil)
		setups = append(setups, time.Since(t0).Seconds())
		return e, err
	}
	for i := 0; i < setupReps; i++ {
		e, err := start()
		if err != nil {
			return err
		}
		if err := e.stop(); err != nil {
			return err
		}
	}
	s := series{}
	var first [32]byte // digest: holding the result would grow later iterations' heaps
	for i := 0; i < r.iters; i++ {
		e, err := start()
		if err != nil {
			return err
		}
		debug.FreeOSMemory()
		u := startUsage()
		cold, warm, err := r.coldWarm(e)
		cpu, alloc, rss := u.since()
		if serr := e.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		s.record(cold.total, warm.total, cpu, alloc, rss)
		if i == 0 {
			first = sha256.Sum256(cold.result)
			if err := r.checkResult(ctx, cold.result); err != nil {
				return err
			}
		} else {
			r.check(sha256.Sum256(cold.result) == first, "iteration %d: study result differs from the first", i)
		}
	}
	r.finishEndToEnd(s, setups)
	return nil
}

// checkResult checks a merged study result with checkPoints, pooling
// through a fresh evaluator.
func (r *run) checkResult(ctx context.Context, result []byte) error {
	st, err := loadStudy(r.spec)
	if err != nil {
		return err
	}
	points, swept, err := parseResult(result)
	if err != nil {
		return err
	}
	r.checkPoints(ctx, st, points, swept, engine.NewWithWorkers(st.cm, engineWorkers))
	return nil
}

// fleetTrace is what the traced fleet run measures about the studies.
type fleetTrace struct {
	submit, queueWait, run, doneReport, fetch time.Duration
	requests, completed, reclaimed            int64
}

// traceFleet is the traced fleet workload, shaped like traceExplore: an
// untraced cold and warm study, the pair again with an obs registry on
// coordinator and worker, read back through /metrics, then an untraced pair
// to compare with, each pair on a fresh data directory; in between, a timed
// replay of the study's re-pricing from its persistent store.
func traceFleet(ctx context.Context, r *run) error {
	dir := filepath.Join(dataRoot, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	untraced := func() (studyRun, error) {
		e, err := startFleet(dir, nil)
		if err != nil {
			return studyRun{}, err
		}
		cold, _, err := r.coldWarm(e)
		if serr := e.stop(); err == nil {
			err = serr
		}
		return cold, err
	}
	first, err := untraced()
	if err != nil {
		return err
	}
	e, err := startFleet(dir, obs.NewRegistry())
	if err != nil {
		return err
	}
	cold, warm, err := r.coldWarm(e)
	if err == nil {
		err = r.traceStudies(ctx, e, cold, warm)
	}
	if serr := e.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	plain, err := untraced()
	if err != nil {
		return err
	}
	r.check(bytes.Equal(first.result, cold.result) && bytes.Equal(plain.result, cold.result),
		"traced study result differs from the untraced ones")
	r.set("obs.trace_overhead_s", (cold.total - plain.total).Seconds(), "s")
	return nil
}

// traceStudies reports the per-layer metrics of a traced cold and warm
// study, checks the study's result and replays its re-pricing.
func (r *run) traceStudies(ctx context.Context, e *fleetEnv, cold, warm studyRun) error {
	var snap obs.Snapshot
	if err := e.get("/metrics", &snap); err != nil {
		return err
	}
	ft := fleetTrace{
		run:        msDuration(snap.Phases["fleet.study_run"].TotalMS),
		doneReport: msDuration(snap.Phases["fleet.http POST /v1/workers/{name}/done"].TotalMS),
		requests:   snap.Counters["fleet.http.requests"],
		completed:  snap.Counters["fleet.shards_completed"],
		reclaimed:  snap.Counters["fleet.shards_reclaimed"],
	}
	for _, s := range []studyRun{cold, warm} {
		ft.submit += s.submit
		ft.queueWait += s.queueWait
		ft.fetch += s.fetch
	}
	r.engineMetrics(snap)
	r.storeMetrics(snap, treeBytes(e.coord.CacheDir(), ""), treeBytes(e.dir, ".jsonl"))
	r.fleetMetrics(ft)

	st, err := loadStudy(r.spec)
	if err != nil {
		return err
	}
	points, swept, err := parseResult(cold.result)
	if err != nil {
		return err
	}
	r.set("dse.swept_points", float64(swept), "count")
	r.set("dse.valid_points", float64(len(points)), "count")
	// Check and replay against the study's own store, as the warm study
	// reads it.
	cache, err := store.Open(e.coord.CacheDir(), store.Options{})
	if err != nil {
		return err
	}
	defer cache.Close()
	eng := engine.NewFromConfig(st.cm, engine.Config{Workers: engineWorkers, Cache: cache})
	r.checkPoints(ctx, st, points, swept, eng)
	return r.replayMetrics(ctx, st, eng, points)
}

// parseResult decodes a merged study result: one explore record per compute
// configuration, in key order.
func parseResult(data []byte) (points []dse.Point, swept int, err error) {
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec struct {
			Key   string
			Value struct {
				Points []dse.Point
				Swept  int
				Err    string
			}
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, 0, fmt.Errorf("study result: %w", err)
		}
		if !strings.HasPrefix(rec.Key, "explore|") {
			continue
		}
		if rec.Value.Err != "" {
			return nil, 0, fmt.Errorf("study result: %s: %s", rec.Key, rec.Value.Err)
		}
		points = append(points, rec.Value.Points...)
		swept += rec.Value.Swept
	}
	return points, swept, nil
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// treeBytes sums the sizes of the files under root whose names end in suffix.
func treeBytes(root, suffix string) int64 {
	var n int64
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck
		if err == nil && !d.IsDir() && strings.HasSuffix(path, suffix) {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// engineMetrics reports the engine's cache counters, the search funnel and
// the search and re-pricing phases from a registry snapshot.
func (r *run) engineMetrics(snap obs.Snapshot) {
	c := snap.Counters
	count := func(name string, v int64) { r.set(name, float64(v), "count") }
	count("engine.lookups", c["engine.lookups"])
	count("engine.searches", c["engine.searches"])
	count("engine.hits", c["engine.hits"])
	count("engine.coalesced", c["engine.coalesced"])
	r.set("engine.dedup", float64(c["engine.lookups"])/float64(max(c["engine.searches"], 1)), "ratio")
	r.set("engine.search_s", snap.Phases["engine.search"].TotalMS/1e3, "s")
	count("engine.warm_start_hits", c["engine.warm_start_hits"])
	count("engine.warm_start_misses", c["engine.warm_start_misses"])
	count("mapper.generated", c["mapper.candidates_generated"])
	count("mapper.evaluated", c["mapper.candidates_evaluated"])
	count("mapper.floors", c["mapper.floors_computed"])
	count("mapper.heap_popped", c["mapper.heap_popped"])
	r.set("mapper.evaluated_frac", float64(c["mapper.candidates_evaluated"])/float64(max(c["mapper.candidates_generated"], 1)), "ratio")
	r.set("dse.memory_point_s", snap.Phases["dse.memory_point"].TotalMS/1e3, "s")
}

// storeMetrics reports the persistent store's counters and the bytes on
// disk of the store and of the checkpoint journals.
func (r *run) storeMetrics(snap obs.Snapshot, storeBytes, journalBytes int64) {
	c := snap.Counters
	r.set("store.disk_hits", float64(c["engine.disk_hits"]), "count")
	r.set("store.disk_misses", float64(c["engine.disk_misses"]), "count")
	r.set("store.disk_puts", float64(c["engine.disk_puts"]), "count")
	r.set("store.disk_corrupt", float64(c["engine.disk_corrupt"]), "count")
	r.set("store.bytes", float64(storeBytes), "bytes")
	r.set("ckpt.journal_bytes", float64(journalBytes), "bytes")
}

// fleetMetrics reports the fleet's per-stage times and counters, summed over
// the traced run's two studies (all zero on the explore workloads).
func (r *run) fleetMetrics(ft fleetTrace) {
	r.set("fleet.submit_ms", float64(ft.submit)/1e6, "ms")
	r.set("fleet.queue_wait_s", ft.queueWait.Seconds(), "s")
	r.set("fleet.run_s", ft.run.Seconds(), "s")
	r.set("fleet.done_report_s", ft.doneReport.Seconds(), "s")
	r.set("fleet.result_fetch_ms", float64(ft.fetch)/1e6, "ms")
	r.set("fleet.http_requests", float64(ft.requests), "count")
	r.set("fleet.shards_completed", float64(ft.completed), "count")
	r.set("fleet.shards_reclaimed", float64(ft.reclaimed), "count")
}
