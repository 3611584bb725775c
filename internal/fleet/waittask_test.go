package fleet

// Long-poll tests: a held task poll (WaitTask) answers on the event that
// makes work or a shutdown signal available — Submit, Drain, Close, the
// request context — and on its hold timer otherwise. None of them
// synchronizes by sleeping: a test learns that a waiter holds the
// coordinator lock for its first check through the coordinator's clock,
// which every check reads under that lock.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parkedClock is an Options.Now that reports when it is next read: arm
// returns a channel closed at the first clock read after the call.
type parkedClock struct {
	mu    sync.Mutex
	armed chan struct{}
}

func (p *parkedClock) now() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.armed != nil {
		close(p.armed)
		p.armed = nil
	}
	return time.Now()
}

func (p *parkedClock) arm() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed = make(chan struct{})
	return p.armed
}

type waitResult struct {
	task  *Task
	drain bool
	err   error
	at    time.Time
}

// parkWaiter starts WaitTask for a registered worker and returns once the
// waiter has read the clock in its first check, i.e. holds the coordinator
// lock with the wake channel already taken: anything that needs the lock
// afterwards (Submit, Drain, Close) happens after the waiter parked, so it
// must wake it.
func parkWaiter(t *testing.T, c *Coordinator, clk *parkedClock, ctx context.Context, worker string, hold time.Duration) <-chan waitResult {
	t.Helper()
	parked := clk.arm()
	out := make(chan waitResult, 1)
	go func() {
		task, drain, err := c.WaitTask(ctx, worker, hold)
		out <- waitResult{task, drain, err, time.Now()}
	}()
	<-parked
	return out
}

// openParked opens a coordinator on a parkedClock with the janitor (the
// only other clock reader) effectively off, and registers worker "w".
func openParked(t *testing.T) (*Coordinator, *parkedClock) {
	t.Helper()
	clk := &parkedClock{}
	c := openCoord(t, t.TempDir(), Options{JanitorEvery: time.Hour, Now: clk.now, NoFsync: true})
	if _, err := c.RegisterWorker("w"); err != nil {
		t.Fatal(err)
	}
	return c, clk
}

// receive waits for a waiter's answer, failing after limit.
func receive(t *testing.T, ch <-chan waitResult, limit time.Duration) waitResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(limit):
		t.Fatalf("WaitTask still held after %v", limit)
		return waitResult{}
	}
}

func TestWaitTaskWakesOnSubmit(t *testing.T) {
	c, clk := openParked(t)
	got := parkWaiter(t, c, clk, context.Background(), "w", 5*time.Second)
	submitted := time.Now()
	id, err := c.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	r := receive(t, got, 5*time.Second)
	if r.err != nil || r.task == nil || r.task.Study != id {
		t.Fatalf("WaitTask = %+v, %v, %v; want study %s", r.task, r.drain, r.err, id)
	}
	if d := r.at.Sub(submitted); d > 100*time.Millisecond {
		t.Errorf("WaitTask answered %v after Submit, want within 100ms", d)
	}
}

// TestWaitTaskDrain parks a poll while Drain waits on a worker still
// assigned to a (cancelled) study: the poll must answer drain=true at once,
// not when the drain completes.
func TestWaitTaskDrain(t *testing.T) {
	c, clk := openParked(t)
	if _, err := c.RegisterWorker("busy"); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if task, _, err := c.NextTask("busy"); err != nil || task == nil {
		t.Fatalf("NextTask = %v, %v; want a task", task, err)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	got := parkWaiter(t, c, clk, context.Background(), "w", 5*time.Second)
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- c.Drain(ctx)
	}()
	if r := receive(t, got, time.Second); r.err != nil || r.task != nil || !r.drain {
		t.Fatalf("WaitTask on drain = %+v, %v, %v; want drain", r.task, r.drain, r.err)
	}
	if err := c.ReportDone("busy", Report{Study: id, Aborted: true}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Drain still waiting 1s after the last worker reported")
	}
}

// TestDrainWakesOnWorkerExpiry: a drain waiting on an assigned worker that
// died ends when the janitor expires the worker, not at its grace period.
func TestDrainWakesOnWorkerExpiry(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	c := openCoord(t, t.TempDir(), Options{WorkerTTL: 10 * time.Second, JanitorEvery: time.Hour, Now: clock, NoFsync: true})
	if _, err := c.RegisterWorker("dead"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(tinySpec(1)); err != nil {
		t.Fatal(err)
	}
	if task, _, err := c.NextTask("dead"); err != nil || task == nil {
		t.Fatalf("NextTask = %v, %v; want a task", task, err)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- c.Drain(ctx)
	}()
	for !errors.Is(c.Ready(), ErrDraining) {
		runtime.Gosched()
	}
	mu.Lock()
	now = now.Add(11 * time.Second)
	mu.Unlock()
	c.sweep()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Drain still waiting 1s after its only busy worker expired")
	}
}

func TestWaitTaskClose(t *testing.T) {
	c, clk := openParked(t)
	got := parkWaiter(t, c, clk, context.Background(), "w", 5*time.Second)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if r := receive(t, got, time.Second); !errors.Is(r.err, ErrClosed) {
		t.Fatalf("WaitTask on close = %+v, %v, %v; want ErrClosed", r.task, r.drain, r.err)
	}
	// A poll on a closed coordinator answers at once, not after its hold.
	if _, _, err := c.WaitTask(context.Background(), "w", time.Hour); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitTask after close = %v, want ErrClosed", err)
	}
}

func TestWaitTaskHoldExpires(t *testing.T) {
	c, _ := openParked(t)
	task, drain, err := c.WaitTask(context.Background(), "w", 20*time.Millisecond)
	if task != nil || drain || err != nil {
		t.Fatalf("WaitTask past its hold = %+v, %v, %v; want nil, false, nil", task, drain, err)
	}
	if _, _, err := c.WaitTask(context.Background(), "nobody", time.Hour); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("WaitTask for an unregistered worker = %v, want ErrUnknownWorker", err)
	}
}

func TestWaitTaskContextCancel(t *testing.T) {
	c, clk := openParked(t)
	ctx, cancel := context.WithCancel(context.Background())
	got := parkWaiter(t, c, clk, ctx, "w", 5*time.Second)
	cancel()
	if r := receive(t, got, time.Second); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("WaitTask on cancel = %+v, %v, %v; want context.Canceled", r.task, r.drain, r.err)
	}
}

// TestWaitTaskStress has 8 workers claim while 8 submitters race them. A
// claim holds for 10s, so a claimer parked before the studies arrived whose
// wake-up was lost would get no task within the test's 5s; and every study
// must be assigned to some worker.
func TestWaitTaskStress(t *testing.T) {
	const n = 8
	c := openCoord(t, t.TempDir(), Options{MaxConcurrent: n, JanitorEvery: time.Hour, NoFsync: true})
	for i := 0; i < n; i++ {
		if _, err := c.RegisterWorker(fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	assigned := make(map[string]bool)
	var firstClaims atomic.Int32
	progress := make(chan struct{}, 16*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			first := true
			for {
				task, _, err := c.WaitTask(ctx, name, 10*time.Second)
				switch {
				case errors.Is(err, context.Canceled):
					return
				case err != nil:
					t.Errorf("%s: WaitTask: %v", name, err)
					return
				case task == nil:
					t.Errorf("%s: hold expired with studies submitted (lost wake-up)", name)
					return
				}
				if first {
					first = false
					firstClaims.Add(1)
				}
				mu.Lock()
				assigned[task.Study] = true
				finished := len(assigned) == n && firstClaims.Load() == n
				mu.Unlock()
				select {
				case progress <- struct{}{}:
				default:
				}
				if finished {
					return
				}
			}
		}(fmt.Sprintf("w%d", i))
	}

	var subs sync.WaitGroup
	for i := 0; i < n; i++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			if _, err := c.Submit(tinySpec(1)); err != nil {
				t.Error(err)
			}
		}()
	}
	subs.Wait()

	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		covered := len(assigned)
		mu.Unlock()
		if covered == n && firstClaims.Load() == n {
			break
		}
		select {
		case <-progress:
		case <-deadline:
			t.Fatalf("after 5s: %d/%d studies assigned, %d/%d claimers served", covered, n, firstClaims.Load(), n)
		}
	}
	cancel()
	wg.Wait()
}

// TestWorkerCancelDuringHeldPoll cancels Worker.Run while its task poll is
// held open (5s here, through the real WaitTask): Run must return at once,
// because the poll request carries the loop's context.
func TestWorkerCancelDuringHeldPoll(t *testing.T) {
	c := openCoord(t, t.TempDir(), Options{NoFsync: true})
	polled := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.Handle("/", c.Handler())
	mux.HandleFunc("POST /v1/workers/{name}/task", func(w http.ResponseWriter, r *http.Request) {
		select {
		case polled <- struct{}{}:
		default:
		}
		c.serveTask(w, r, 5*time.Second)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	select {
	case <-polled:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never polled for a task")
	}
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run after cancel = %v, want context.Canceled", err)
		}
		if d := time.Since(cancelled); d > 100*time.Millisecond {
			t.Errorf("Run returned %v after cancel, want within 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still blocked in the held poll 5s after cancel")
	}
}
