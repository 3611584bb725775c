// Package lease shards a DSE sweep across worker processes with nothing but
// files on a shared directory — no coordinator, no network. The study's point
// range is cut into numbered shards; a worker owns a shard by holding its
// newest lease generation, renews that generation while it works, and marks
// the shard done with a separate done marker. A worker that dies (SIGKILL,
// OOM, power) simply stops heartbeating: once its lease expires, any
// surviving worker takes the shard over and re-evaluates it, which is safe
// because point evaluation is deterministic and journal records are keyed —
// a duplicated point carries an identical value.
//
// Ownership is single-winner by construction. Lease generations are numbered
// files, shard-NNNN.gG.lease, and the newest one is the shard's lease. A
// claim or takeover installs generation G+1 by link(2)-ing a fully written
// temp file to its name: the link fails with EEXIST when another contender
// got there first, so each generation is created exactly once, by one
// worker, and is never torn. A heartbeat rewrites only its own generation
// and fails once a newer one exists. Done markers are monotonic (never
// removed) and authoritative: they beat any lease.
//
// Leases bind to a study signature: a directory accidentally shared by two
// different sweeps refuses to cross-claim, the same guard ckpt.MergeFiles
// applies to journals.
package lease

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// ErrAllDone reports that every shard of the study is finished — the worker
// loop's successful termination condition.
var ErrAllDone = errors.New("lease: all shards done")

// ErrContended reports that no shard could be claimed right now but
// unfinished shards remain, all currently covered by live leases.
var ErrContended = errors.New("lease: all remaining shards are leased")

// lease is the wire format of a lease file. A zero Deadline marks a lease its
// owner released: the next claim is a fresh claim, not a takeover.
type lease struct {
	Study    string `json:"study"`
	Shard    int    `json:"shard"`
	Owner    string `json:"owner"`
	Nonce    int64  `json:"nonce"`
	Deadline int64  `json:"deadlineUnixNano"`
}

// Options tunes a Manager.
type Options struct {
	// TTL is how long a heartbeat keeps a lease alive. Longer TTLs tolerate
	// slower points; shorter ones reclaim dead workers' shards faster.
	// <= 0 uses DefaultTTL.
	TTL time.Duration
	// Retries bounds how many claim sweeps TryClaim makes before giving up
	// with ErrContended. <= 0 uses DefaultRetries.
	Retries int
	// Backoff is the delay between claim sweeps, doubling per retry.
	// <= 0 uses DefaultBackoff.
	Backoff time.Duration
	// Now overrides the wall clock; nil uses time.Now. The hook exists so
	// tests can inject skewed clocks — lease expiry compares a deadline
	// written by the claimant's clock against the heir's clock, and the
	// takeover protocol must stay exactly-one-winner under that skew.
	Now func() time.Time
}

// Defaults for Options.
const (
	DefaultTTL     = 30 * time.Second
	DefaultRetries = 3
	DefaultBackoff = 50 * time.Millisecond
)

// Manager claims, renews and completes the shard leases of one worker on one
// study. It is not safe for concurrent use; one worker drives one Manager.
type Manager struct {
	dir   string
	study string
	owner string
	opts  Options
	rng   *rand.Rand

	// nonce identifies this Manager's live lease, generation gen of shard.
	nonce int64
	shard int
	gen   int
	// takeovers counts expired or torn leases this Manager superseded —
	// shards reclaimed from dead peers rather than freshly claimed.
	takeovers int
}

// New builds a Manager over a shared lease directory. study is the study
// signature every worker of the sweep must agree on; owner is a diagnostic
// worker identity (hostname, pid, shard CLI flag — anything stable enough to
// debug with).
func New(dir, study, owner string, opts Options) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	if opts.TTL <= 0 {
		opts.TTL = DefaultTTL
	}
	if opts.Retries <= 0 {
		opts.Retries = DefaultRetries
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultBackoff
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	seed := time.Now().UnixNano() ^ int64(os.Getpid())<<32
	return &Manager{
		dir: dir, study: study, owner: owner, opts: opts,
		rng: rand.New(rand.NewSource(seed)), shard: -1,
	}, nil
}

// now reads the Manager's clock (the real one unless Options.Now injected a
// skewed test clock).
func (m *Manager) now() time.Time { return m.opts.Now() }

// Jitter spreads d by ±10% using the Manager's private randomness. Heartbeat
// periods and takeover retry delays go through it so a fleet of hot-standby
// workers watching the same expired lease spreads out instead of stampeding
// the takeover rename at the same instant.
func (m *Manager) Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (0.9 + 0.2*m.rng.Float64()))
}

// genPath names one lease generation of a shard.
func (m *Manager) genPath(shard, gen int) string {
	return filepath.Join(m.dir, fmt.Sprintf("shard-%04d.g%d.lease", shard, gen))
}

// generations lists the lease generations present for a shard, unordered.
func (m *Manager) generations(shard int) []int {
	prefix := fmt.Sprintf("shard-%04d.g", shard)
	// Glob fails only on a malformed pattern, and this one is fixed.
	names, _ := filepath.Glob(filepath.Join(m.dir, prefix+"*.lease"))
	gens := make([]int, 0, len(names))
	for _, name := range names {
		g, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(name), prefix), ".lease"))
		if err == nil && g > 0 {
			gens = append(gens, g)
		}
	}
	return gens
}

// current returns a shard's newest lease generation (0 when it has none)
// and that lease; ok is false when there is none or it does not decode.
func (m *Manager) current(shard int) (gen int, l lease, ok bool) {
	for _, g := range m.generations(shard) {
		gen = max(gen, g)
	}
	if gen == 0 {
		return 0, lease{}, false
	}
	l, ok = m.read(m.genPath(shard, gen))
	return gen, l, ok
}

func (m *Manager) donePath(shard int) string { return donePathIn(m.dir, shard) }

func donePathIn(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.done", shard))
}

// Done reports whether a shard has been completed (by anyone).
func (m *Manager) Done(shard int) bool {
	_, err := os.Stat(m.donePath(shard))
	return err == nil
}

// read parses a lease file; a missing or undecodable file returns ok=false
// (generations are installed whole, so an undecodable lease is damage on
// disk — it never protects the shard).
func (m *Manager) read(path string) (lease, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return lease{}, false
	}
	var l lease
	if err := json.Unmarshal(data, &l); err != nil {
		return lease{}, false
	}
	return l, true
}

// writeTemp writes l to a fresh temp file in the lease directory and returns
// its name.
func (m *Manager) writeTemp(l lease) (string, error) {
	data, err := json.Marshal(l)
	if err != nil {
		return "", fmt.Errorf("lease: %w", err)
	}
	tmp, err := os.CreateTemp(m.dir, ".lease-*")
	if err != nil {
		return "", fmt.Errorf("lease: %w", err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("lease: %w", err)
	}
	return tmp.Name(), nil
}

// install creates a lease generation by linking a fully written temp file to
// path. It reports false when path already exists: link(2) never replaces a
// file, so of all contenders for one generation exactly one wins.
func (m *Manager) install(path string, l lease) (bool, error) {
	tmp, err := m.writeTemp(l)
	if err != nil {
		return false, err
	}
	defer os.Remove(tmp)
	if err := os.Link(tmp, path); err != nil {
		if errors.Is(err, os.ErrExist) {
			return false, nil
		}
		return false, fmt.Errorf("lease: %w", err)
	}
	return true, nil
}

// rewrite atomically replaces this Manager's own generation file (temp +
// rename). No other worker ever writes that file: a contender creates the
// next generation instead.
func (m *Manager) rewrite(l lease) error {
	tmp, err := m.writeTemp(l)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, m.genPath(m.shard, m.gen)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("lease: %w", err)
	}
	return nil
}

// fresh builds a new lease for shard with a new nonce.
func (m *Manager) fresh(shard int) lease {
	m.nonce = m.rng.Int63()
	return lease{
		Study: m.study, Shard: shard, Owner: m.owner, Nonce: m.nonce,
		Deadline: m.now().Add(m.opts.TTL).UnixNano(),
	}
}

// tryClaimOne attempts to acquire one specific shard: install the generation
// after the newest one when the shard has no lease, or its newest lease is
// expired, released or torn.
func (m *Manager) tryClaimOne(shard int) (bool, error) {
	if m.Done(shard) {
		return false, nil
	}
	gen, cur, ok := m.current(shard)
	if ok {
		if cur.Study != m.study {
			return false, fmt.Errorf("lease: shard %d is leased for study %q, not %q — directory shared across sweeps",
				shard, cur.Study, m.study)
		}
		if m.now().UnixNano() < cur.Deadline {
			return false, nil // live lease: someone else is on it
		}
	}
	// Contend for the next generation. Every contender that saw the same
	// newest generation links the same name, and only one link succeeds.
	won, err := m.install(m.genPath(shard, gen+1), m.fresh(shard))
	if err != nil || !won {
		return false, err
	}
	if m.Done(shard) {
		// The old owner finished between our expiry check and the install;
		// the done marker is authoritative, our lease is moot.
		os.Remove(m.genPath(shard, gen+1))
		return false, nil
	}
	m.shard, m.gen = shard, gen+1
	if gen > 0 && (!ok || cur.Deadline != 0) {
		m.takeovers++
	}
	return true, nil
}

// TryClaim sweeps the study's shards for one this worker can own, with
// bounded retry and doubling backoff when every unfinished shard is under a
// live lease (the holder may die — retrying is how its shard gets picked up).
// Returns the claimed shard index, ErrAllDone when every shard has a done
// marker, or ErrContended after the retry budget.
func (m *Manager) TryClaim(ctx context.Context, shards int) (int, error) {
	backoff := m.opts.Backoff
	for attempt := 0; ; attempt++ {
		done := 0
		for s := 0; s < shards; s++ {
			if m.Done(s) {
				done++
				continue
			}
			ok, err := m.tryClaimOne(s)
			if err != nil {
				return -1, err
			}
			if ok {
				return s, nil
			}
		}
		if done == shards {
			return -1, ErrAllDone
		}
		if attempt >= m.opts.Retries {
			return -1, ErrContended
		}
		t := time.NewTimer(m.Jitter(backoff))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return -1, ctx.Err()
		}
		backoff *= 2
	}
}

// Heartbeat renews the held lease generation, extending its deadline by one
// TTL. It fails once the shard is done or a newer generation exists — the
// lease expired and another worker took the shard over; the caller must
// abandon the shard (its work is not wasted: keyed, deterministic journal
// records merge cleanly with the new owner's). A taker can read the expired
// deadline just before a late renewal lands, so the old owner may learn of
// the takeover one heartbeat late; the new generation still has one owner.
func (m *Manager) Heartbeat() error {
	if m.shard < 0 {
		return errors.New("lease: no shard held")
	}
	if m.lost() {
		return fmt.Errorf("lease: shard %d was taken over (lease lost)", m.shard)
	}
	l := lease{Study: m.study, Shard: m.shard, Owner: m.owner, Nonce: m.nonce,
		Deadline: m.now().Add(m.opts.TTL).UnixNano()}
	if err := m.rewrite(l); err != nil {
		return err
	}
	if m.lost() {
		return fmt.Errorf("lease: shard %d was taken over during heartbeat", m.shard)
	}
	return nil
}

// lost reports whether the held generation no longer owns the shard: the
// shard is done, a newer generation exists, or the file is not ours.
func (m *Manager) lost() bool {
	if m.Done(m.shard) {
		return true
	}
	if _, err := os.Stat(m.genPath(m.shard, m.gen+1)); err == nil {
		return true
	}
	cur, ok := m.read(m.genPath(m.shard, m.gen))
	return !ok || cur.Nonce != m.nonce
}

// Complete writes the held shard's done marker, then removes the shard's
// lease generations. Done markers are never removed, so completion is
// monotonic even if a stale former owner later rewrites its generation.
func (m *Manager) Complete() error {
	if m.shard < 0 {
		return errors.New("lease: no shard held")
	}
	path := m.donePath(m.shard)
	tmp, err := os.CreateTemp(m.dir, ".done-*")
	if err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	tmpName := tmp.Name()
	line, err := json.Marshal(struct {
		Study string `json:"study"`
		Shard int    `json:"shard"`
		Owner string `json:"owner"`
	}{m.study, m.shard, m.owner})
	if err == nil {
		_, err = tmp.Write(line)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("lease: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("lease: %w", err)
	}
	for _, g := range m.generations(m.shard) {
		os.Remove(m.genPath(m.shard, g))
	}
	m.shard, m.gen, m.nonce = -1, 0, 0
	return nil
}

// Release abandons the held shard without completing it: if the held
// generation still owns the shard it is rewritten as released (zero
// deadline), so another worker can claim the shard immediately instead of
// waiting out the TTL.
func (m *Manager) Release() {
	if m.shard < 0 {
		return
	}
	if !m.lost() {
		// A failed rewrite leaves the lease to expire on its TTL instead.
		_ = m.rewrite(lease{Study: m.study, Shard: m.shard, Owner: m.owner, Nonce: m.nonce})
	}
	m.shard, m.gen, m.nonce = -1, 0, 0
}

// Shard returns the currently held shard index, or -1.
func (m *Manager) Shard() int { return m.shard }

// Takeovers returns how many shards this Manager acquired by taking over an
// expired or torn lease — the reclaimed-from-dead-peers count surfaced by
// fleet observability.
func (m *Manager) Takeovers() int { return m.takeovers }

// DoneCount reports how many of the study's shards carry done markers in a
// lease directory — the coordinator's progress view, needing no Manager and
// no claims. A missing directory counts zero.
func DoneCount(dir string, shards int) int {
	n := 0
	for s := 0; s < shards; s++ {
		if _, err := os.Stat(donePathIn(dir, s)); err == nil {
			n++
		}
	}
	return n
}

// TTL returns the effective lease time-to-live (callers derive their
// heartbeat period from it).
func (m *Manager) TTL() time.Duration { return m.opts.TTL }
