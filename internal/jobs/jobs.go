// Package jobs is the asynchronous job subsystem behind the serving
// layer's /v1/jobs API: long-running sweep and Monte Carlo studies
// submitted once, executed by a coordinator that shards their grid
// points across worker loops, and polled or streamed while they run —
// instead of holding an HTTP connection for the whole study.
//
// # Model
//
// A job is (kind, canonical scenario): the same document the
// synchronous endpoints accept, executed as the kind's scenario.Plan
// one independent grid point at a time. The job id is the SHA-256 of
// that identity, so submission is idempotent — re-submitting a
// running, finished or crashed study attaches to the same job. Points
// execute on N worker loops over contiguous shards with work-stealing:
// a worker that drains its own shard steals from the tail of the
// fullest remaining shard, so stragglers cannot idle the pool. A point
// that fails transiently retries with exponential backoff before
// failing the job.
//
// # Durability
//
// With a store configured, every finished point is written to the
// content-addressed result store before it counts as done, and the job
// record (id, kind, scenario, state) is persisted on every state
// transition. After a crash or restart, Recover re-enumerates the
// records, re-derives each job's point list from its canonical
// scenario, finds the already-finished points in the store, and
// resumes computing only the missing ones. The merged result is stored
// under the same key the synchronous endpoint uses, so a completed job
// serves later synchronous requests (and other instances sharing the
// directory) as a durable cache hit.
//
// # Determinism
//
// Results are byte-identical to the synchronous serving path at any
// worker count, steal pattern, retry history or restart point: both run
// the same scenario.Plan, and a job only adds the JSON round trip of
// each point's value through the store (see the contract spelled out
// in internal/scenario/plan.go).
package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wsnbcast/internal/life"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/store"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Config sizes the manager; zero values mean the stated defaults.
type Config struct {
	// Store, when non-nil, makes jobs durable: finished points and
	// merged results are written through to it and Recover resumes
	// unfinished jobs after a restart. Nil means in-memory jobs only.
	Store *store.Store
	// Workers is the number of point worker loops (<= 0: GOMAXPROCS).
	Workers int
	// RetryMax is the attempt budget per point (0: 3). A point failing
	// RetryMax times fails its job.
	RetryMax int
	// RetryBase is the first retry's backoff; attempt k waits
	// RetryBase << (k-1) (0: 50ms).
	RetryBase time.Duration
	// CheckpointEvery is the round cadence at which lifetime points
	// checkpoint their round loop through the store (0:
	// life.DefaultCheckpointEvery). The cadence never changes result
	// bytes, only how much work a killed process repeats.
	CheckpointEvery int
	// BeforePoint, when non-nil, runs at the start of every point
	// execution attempt, before the store is consulted. Test
	// instrumentation: the drain and restart tests use it to hold
	// points in flight and count executions.
	BeforePoint func(jobID string, index int)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	return c
}

// Status is a job's externally visible state, served by GET /v1/jobs/{id}.
type Status struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Done and Total count grid points; partial progress is visible
	// while the job runs.
	Done  int    `json:"done_points"`
	Total int    `json:"total_points"`
	Error string `json:"error,omitempty"`
	// Created and Updated are Unix milliseconds.
	Created int64 `json:"created_ms"`
	Updated int64 `json:"updated_ms"`
}

// Event is one entry of a job's progress stream: a finished grid point
// ("point", with its payload), or the terminal "done"/"failed".
type Event struct {
	Type    string          `json:"type"`
	Index   int             `json:"index,omitempty"`
	Done    int             `json:"done_points"`
	Total   int             `json:"total_points"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// Stats is a snapshot of the manager's lifecycle counters and gauges,
// merged into the service's /metrics document.
type Stats struct {
	Submitted       uint64 `json:"submitted"`
	Recovered       uint64 `json:"recovered"`
	Completed       uint64 `json:"completed"`
	Failed          uint64 `json:"failed"`
	Running         int    `json:"running"`
	QueuedJobs      int    `json:"queued"`
	QueuedPoints    int    `json:"queued_points"`
	PointsComputed  uint64 `json:"points_computed"`
	PointsFromStore uint64 `json:"points_from_store"`
	Retries         uint64 `json:"retries"`
	// OldestAgeMs is the age of the oldest non-terminal job, 0 when
	// every job is done or failed.
	OldestAgeMs int64 `json:"oldest_age_ms"`
}

// job is the manager's internal job representation. The mutex guards
// everything below it; payloads slots are written exactly once.
type job struct {
	id      string
	kind    string
	sc      scenario.Scenario
	scJSON  []byte
	total   int
	created time.Time

	mu sync.Mutex
	// pl is the compiled plan while the job can still run; a terminal
	// job drops it, so its mesh is not held for the job table's life.
	pl       *scenario.Plan
	state    State
	done     int
	payloads [][]byte
	result   []byte
	err      error
	updated  time.Time
	subs     map[int]chan Event
	subSeq   int
	finished chan struct{}
}

// record is the durable form of a job.
type record struct {
	ID        string          `json:"id"`
	Kind      string          `json:"kind"`
	Scenario  json.RawMessage `json:"scenario"`
	State     State           `json:"state"`
	Total     int             `json:"total_points"`
	Error     string          `json:"error,omitempty"`
	CreatedMs int64           `json:"created_ms"`
}

// Manager owns the job table and the coordinator. Construct with
// NewManager; Close stops it. Safe for concurrent use.
type Manager struct {
	cfg Config

	mu    sync.Mutex
	jobs  map[string]*job
	queue []*job
	wake  chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
	loopWG sync.WaitGroup
	closed atomic.Bool

	submitted       atomic.Uint64
	recovered       atomic.Uint64
	completed       atomic.Uint64
	failed          atomic.Uint64
	pointsComputed  atomic.Uint64
	pointsFromStore atomic.Uint64
	retries         atomic.Uint64
}

// NewManager starts a manager and its coordinator loop.
func NewManager(cfg Config) *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:    cfg.withDefaults(),
		jobs:   make(map[string]*job),
		wake:   make(chan struct{}, 1),
		ctx:    ctx,
		cancel: cancel,
	}
	m.loopWG.Add(1)
	go m.dispatch()
	return m
}

// jobID derives the content-addressed job identity.
func jobID(kind string, scJSON []byte) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{':'})
	h.Write(scJSON)
	return hex.EncodeToString(h.Sum(nil))
}

// Submit registers (or re-attaches to) the job for the plan's kind and
// canonical document and returns its status. Submission is idempotent:
// the id is the hash of (kind, canonical document), so resubmitting
// returns the existing job — a failed one is re-queued for another
// attempt. If the store already holds the merged result (a previous
// run of this job, or the synchronous path on any instance sharing the
// directory), the job completes immediately without computing anything.
func (m *Manager) Submit(pl *scenario.Plan) (Status, error) {
	if m.closed.Load() {
		return Status{}, errors.New("jobs: manager closed")
	}
	kind, sc := pl.Kind(), pl.Scenario()
	scJSON, err := json.Marshal(sc)
	if err != nil {
		return Status{}, err
	}
	id := jobID(kind, scJSON)

	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		j.mu.Lock()
		defer j.mu.Unlock()
		if j.state == StateFailed {
			// Re-queue a failed job: keep whatever points finished.
			j.pl = pl
			j.state = StateQueued
			j.err = nil
			j.updated = time.Now()
			j.finished = make(chan struct{})
			m.persistLocked(j)
			m.queue = append(m.queue, j)
			m.wakeUp()
		}
		return j.statusLocked(), nil
	}

	now := time.Now()
	j := &job{
		id: id, kind: kind, sc: sc, scJSON: scJSON, total: pl.Points(),
		created: now, updated: now,
		pl:       pl,
		state:    StateQueued,
		payloads: make([][]byte, pl.Points()),
		subs:     make(map[int]chan Event),
		finished: make(chan struct{}),
	}
	m.submitted.Add(1)

	// Short-circuit: the merged result may already be durable.
	if body, ok := m.resultFromStore(j); ok {
		j.pl = nil
		j.state = StateDone
		j.done = j.total
		j.result = body
		close(j.finished)
		m.jobs[id] = j
		m.persistLocked(j)
		j.mu.Lock()
		st := j.statusLocked()
		j.mu.Unlock()
		return st, nil
	}

	m.jobs[id] = j
	m.persistLocked(j)
	m.queue = append(m.queue, j)
	m.wakeUp()
	j.mu.Lock()
	st := j.statusLocked()
	j.mu.Unlock()
	return st, nil
}

func (m *Manager) resultFromStore(j *job) ([]byte, bool) {
	if m.cfg.Store == nil {
		return nil, false
	}
	key, err := resultKey(j.kind, j.sc)
	if err != nil {
		return nil, false
	}
	return m.cfg.Store.Get(key)
}

// Recover loads persisted job records and re-queues every job that was
// not finished when the previous process exited (cleanly or not).
// Finished points are found in the store, so a recovered job computes
// only what is missing. It returns the number of jobs re-queued.
func (m *Manager) Recover() (int, error) {
	if m.cfg.Store == nil {
		return 0, nil
	}
	names, err := m.cfg.Store.ListRecords()
	if err != nil {
		return 0, err
	}
	resumed := 0
	for _, name := range names {
		raw, ok, err := m.cfg.Store.GetRecord(name)
		if err != nil || !ok {
			continue
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil || rec.ID == "" {
			continue // unreadable record: ignore rather than refuse to start
		}
		queued, err := m.recoverOne(rec)
		if err != nil {
			return resumed, fmt.Errorf("jobs: recover %s: %w", rec.ID, err)
		}
		if queued {
			resumed++
		}
	}
	return resumed, nil
}

// recoverOne loads one record into the job table and reports whether
// it queued the job. Reporting it here, rather than reading the job's
// state back afterwards, keeps a dispatcher that has already picked the
// job up from hiding it from Recover's count.
func (m *Manager) recoverOne(rec record) (bool, error) {
	sc, err := scenario.Load(bytes.NewReader(rec.Scenario))
	loaded := err == nil
	var pl *scenario.Plan
	if loaded {
		sc = sc.Canonical()
		pl, err = scenario.NewPlan(rec.Kind, sc)
	}
	// A record written by an earlier release may hold a document that
	// validation now rejects. Such a job can never run again, but it
	// must not stop the server from starting: it is loaded as failed
	// with the validation error, unless it finished and its merged
	// result is still stored, in which case it stays done.
	invalid := err
	scJSON := []byte(rec.Scenario)
	total := max(rec.Total, 0)
	if invalid == nil {
		total = pl.Points()
	}
	if loaded {
		if scJSON, err = json.Marshal(sc); err != nil {
			return false, err
		}
	}
	created := time.UnixMilli(rec.CreatedMs)
	j := &job{
		id: rec.ID, kind: rec.Kind, sc: sc, scJSON: scJSON, total: total,
		created: created, updated: time.Now(),
		subs:     make(map[int]chan Event),
		finished: make(chan struct{}),
	}
	if invalid == nil {
		// Every job whose document validates gets its payload slots,
		// whatever its state: a failed one may be resubmitted later.
		j.payloads = make([][]byte, total)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.jobs[rec.ID]; ok {
		return false, nil // already live (Submit raced Recover)
	}
	switch rec.State {
	case StateDone:
		body, ok := []byte(nil), false
		if loaded {
			body, ok = m.resultFromStore(j)
		}
		if !ok {
			// The record says done but the result is gone (corruption
			// healed to a miss): recompute, if the document still
			// validates.
			break
		}
		j.state = StateDone
		j.done = total
		j.result = body
		close(j.finished)
		m.jobs[rec.ID] = j
		return false, nil
	case StateFailed:
		j.state = StateFailed
		j.err = errors.New(rec.Error)
		close(j.finished)
		m.jobs[rec.ID] = j
		return false, nil
	}
	if invalid != nil {
		j.state = StateFailed
		j.err = fmt.Errorf("jobs: recovered document no longer validates: %w", invalid)
		close(j.finished)
		m.jobs[rec.ID] = j
		m.failed.Add(1)
		m.persistLocked(j)
		return false, nil
	}
	// Queued or running (or done-with-missing-result): scan the store
	// for points that already finished and queue the rest.
	j.pl = pl
	for i := 0; i < total; i++ {
		key, err := pointKey(rec.Kind, sc, i)
		if err != nil {
			return false, err
		}
		if body, ok := m.cfg.Store.Get(key); ok {
			j.payloads[i] = body
			j.done++
		}
	}
	j.state = StateQueued
	m.jobs[rec.ID] = j
	m.recovered.Add(1)
	m.persistLocked(j)
	m.queue = append(m.queue, j)
	m.wakeUp()
	return true, nil
}

// Get returns the status of the job with the given id.
func (m *Manager) Get(id string) (Status, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(), true
}

// Result returns a finished job's merged body.
func (m *Manager) Result(id string) ([]byte, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	if j.result == nil {
		// Done via a previous process: the body lives in the store.
		j.mu.Unlock()
		body, ok := m.resultFromStore(j)
		j.mu.Lock()
		if !ok {
			return nil, false
		}
		j.result = body
	}
	return j.result, true
}

// Subscribe attaches to a job's progress stream. It returns the events
// already emitted (every finished point in index order, plus the
// terminal event if the job is over), a channel carrying subsequent
// events (closed after the terminal event), and a cancel function the
// caller must invoke when done. The channel is buffered for the job's
// remaining events, so the coordinator never blocks on a slow consumer.
func (m *Manager) Subscribe(id string) (replay []Event, ch <-chan Event, cancel func(), ok bool) {
	m.mu.Lock()
	j, exists := m.jobs[id]
	m.mu.Unlock()
	if !exists {
		return nil, nil, nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, p := range j.payloads {
		if p != nil {
			replay = append(replay, Event{Type: "point", Index: i, Done: j.done, Total: j.total, Payload: p})
		}
	}
	if j.state == StateDone || j.state == StateFailed {
		replay = append(replay, j.terminalEventLocked())
		closed := make(chan Event)
		close(closed)
		return replay, closed, func() {}, true
	}
	c := make(chan Event, j.total-j.done+2)
	idx := j.subSeq
	j.subSeq++
	j.subs[idx] = c
	cancel = func() {
		j.mu.Lock()
		delete(j.subs, idx)
		j.mu.Unlock()
	}
	return replay, c, cancel, true
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("jobs: unknown job %s", id)
	}
	select {
	case <-j.finished:
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(), nil
}

// Stats returns a snapshot of the lifecycle counters and gauges.
func (m *Manager) Stats() Stats {
	s := Stats{
		Submitted:       m.submitted.Load(),
		Recovered:       m.recovered.Load(),
		Completed:       m.completed.Load(),
		Failed:          m.failed.Load(),
		PointsComputed:  m.pointsComputed.Load(),
		PointsFromStore: m.pointsFromStore.Load(),
		Retries:         m.retries.Load(),
	}
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	var oldest time.Time
	for _, j := range m.jobs {
		j.mu.Lock()
		switch j.state {
		case StateRunning:
			s.Running++
			s.QueuedPoints += j.total - j.done
		case StateQueued:
			s.QueuedJobs++
			s.QueuedPoints += j.total - j.done
		}
		if j.state == StateQueued || j.state == StateRunning {
			if oldest.IsZero() || j.created.Before(oldest) {
				oldest = j.created
			}
		}
		j.mu.Unlock()
	}
	if !oldest.IsZero() {
		s.OldestAgeMs = now.Sub(oldest).Milliseconds()
	}
	return s
}

// Close checkpoints and stops the coordinator: no new job starts, the
// points already executing finish (their results are durable the
// moment they complete), and every unfinished job's record is
// persisted so the next process's Recover resumes it. The store itself
// is NOT closed — the caller owns it and must close it after Close
// returns, because in-flight points write to it until then.
func (m *Manager) Close(ctx context.Context) error {
	// Cancel before fencing Submit: once Submit reports the manager
	// closed, the workers are guaranteed to be stopping — tests and
	// drain sequencing rely on that order.
	m.cancel()
	m.closed.Store(true)
	idle := make(chan struct{})
	go func() {
		m.loopWG.Wait()
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Checkpoint: persist every non-terminal job as queued so Recover
	// picks it up. Terminal jobs were persisted at their transition.
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state == StateQueued || j.state == StateRunning {
			j.state = StateQueued
			m.persistLocked(j)
		}
		j.mu.Unlock()
	}
	return nil
}

// wakeUp nudges the dispatcher; callers hold m.mu.
func (m *Manager) wakeUp() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// persistLocked writes the job's record through the store; callers
// hold j.mu or are constructing j. Persistence failures are recorded
// on the job but do not abort it: an unpersisted job still completes,
// it just will not survive a restart.
func (m *Manager) persistLocked(j *job) {
	if m.cfg.Store == nil {
		return
	}
	errStr := ""
	if j.err != nil {
		errStr = j.err.Error()
	}
	rec, err := json.Marshal(record{
		ID: j.id, Kind: j.kind, Scenario: j.scJSON,
		State: j.state, Total: j.total, Error: errStr,
		CreatedMs: j.created.UnixMilli(),
	})
	if err != nil {
		return
	}
	m.cfg.Store.PutRecord(j.id, rec)
}

func (j *job) statusLocked() Status {
	errStr := ""
	if j.err != nil {
		errStr = j.err.Error()
	}
	return Status{
		ID: j.id, Kind: j.kind, State: j.state,
		Done: j.done, Total: j.total, Error: errStr,
		Created: j.created.UnixMilli(), Updated: j.updated.UnixMilli(),
	}
}

func (j *job) terminalEventLocked() Event {
	if j.state == StateFailed {
		errStr := ""
		if j.err != nil {
			errStr = j.err.Error()
		}
		return Event{Type: "failed", Done: j.done, Total: j.total, Error: errStr}
	}
	return Event{Type: "done", Done: j.done, Total: j.total}
}

// emitLocked fans an event out to the subscribers; callers hold j.mu.
// Channels are sized for the job's remaining events at subscribe time,
// so sends never block; a send that would (a subscriber misusing the
// API) is dropped rather than stalling the coordinator.
func (j *job) emitLocked(e Event) {
	for _, c := range j.subs {
		select {
		case c <- e:
		default:
		}
	}
	if e.Type != "point" {
		for id, c := range j.subs {
			close(c)
			delete(j.subs, id)
		}
	}
}

// dispatch is the coordinator loop: one job at a time, its points
// fanned across the worker shards. Jobs queue in submission order.
func (m *Manager) dispatch() {
	defer m.loopWG.Done()
	for {
		j := m.nextJob()
		if j == nil {
			return
		}
		m.runJob(j)
	}
}

func (m *Manager) nextJob() *job {
	for {
		m.mu.Lock()
		if len(m.queue) > 0 {
			j := m.queue[0]
			m.queue = m.queue[1:]
			m.mu.Unlock()
			return j
		}
		m.mu.Unlock()
		select {
		case <-m.ctx.Done():
			return nil
		case <-m.wake:
		}
	}
}

// shard is one worker's contiguous slice of a job's pending points.
// Owners take from the front, thieves steal from the back, so a steal
// never contends with the owner on the same index.
type shard struct {
	mu   sync.Mutex
	idxs []int
	lo   int
	hi   int
}

func (s *shard) take() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lo >= s.hi {
		return 0, false
	}
	i := s.idxs[s.lo]
	s.lo++
	return i, true
}

func (s *shard) steal() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lo >= s.hi {
		return 0, false
	}
	s.hi--
	return s.idxs[s.hi], true
}

func (s *shard) remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hi - s.lo
}

// buildShards partitions the pending point indexes into one contiguous
// chunk per worker.
func buildShards(pending []int, workers int) []*shard {
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers < 1 {
		workers = 1
	}
	shards := make([]*shard, workers)
	chunk := (len(pending) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(pending))
		if lo > hi {
			lo = hi
		}
		shards[w] = &shard{idxs: pending, lo: lo, hi: hi}
	}
	return shards
}

// runJob executes one job's pending points across the worker shards,
// then merges. On manager shutdown mid-job it returns with the job
// checkpointed back to queued (Close persists it).
func (m *Manager) runJob(j *job) {
	j.mu.Lock()
	j.state = StateRunning
	j.updated = time.Now()
	pl := j.pl
	var pending []int
	for i, p := range j.payloads {
		if p == nil {
			pending = append(pending, i)
		}
	}
	m.persistLocked(j)
	j.mu.Unlock()

	jctx, jcancel := context.WithCancel(m.ctx)
	defer jcancel()
	var failure atomic.Pointer[error]

	if len(pending) > 0 {
		shards := buildShards(pending, m.cfg.Workers)
		var wg sync.WaitGroup
		for w := range shards {
			wg.Add(1)
			go func(own int) {
				defer wg.Done()
				for {
					if jctx.Err() != nil {
						return
					}
					idx, ok := shards[own].take()
					if !ok {
						idx, ok = stealFrom(shards, own)
					}
					if !ok {
						return
					}
					if err := m.runPoint(jctx, j, pl, idx); err != nil {
						if jctx.Err() == nil {
							err := fmt.Errorf("jobs: point %d: %w", idx, err)
							failure.CompareAndSwap(nil, &err)
						}
						jcancel() // stop the other workers
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	if m.ctx.Err() != nil {
		// Shutdown: leave the job for Close to checkpoint as queued.
		return
	}
	if perr := failure.Load(); perr != nil {
		m.failJob(j, *perr)
		return
	}

	j.mu.Lock()
	payloads := j.payloads
	j.mu.Unlock()
	body, err := mergePayloads(pl, payloads)
	if err != nil {
		m.failJob(j, err)
		return
	}
	if m.cfg.Store != nil {
		if key, kerr := resultKey(j.kind, j.sc); kerr == nil {
			if perr := m.cfg.Store.Put(key, body); perr != nil {
				m.failJob(j, fmt.Errorf("jobs: store result: %w", perr))
				return
			}
		}
	}
	m.completed.Add(1)
	j.mu.Lock()
	j.pl = nil
	j.state = StateDone
	j.result = body
	j.updated = time.Now()
	m.persistLocked(j)
	j.emitLocked(j.terminalEventLocked())
	close(j.finished)
	j.mu.Unlock()
}

// mergePayloads decodes the complete, index-ordered payload set and
// merges it into the final response body, byte-identical to the
// synchronous path.
func mergePayloads(pl *scenario.Plan, payloads [][]byte) ([]byte, error) {
	parts := make([]any, len(payloads))
	for i, raw := range payloads {
		var err error
		if parts[i], err = pl.Decode(i, raw); err != nil {
			return nil, fmt.Errorf("jobs: point %d: %w", i, err)
		}
	}
	rep, err := pl.Merge(parts)
	if err != nil {
		return nil, err
	}
	return store.EncodeBody(rep)
}

// stealFrom picks the victim shard with the most remaining work and
// steals one index from its tail.
func stealFrom(shards []*shard, self int) (int, bool) {
	for {
		victim, most := -1, 0
		for i, s := range shards {
			if i == self {
				continue
			}
			if r := s.remaining(); r > most {
				victim, most = i, r
			}
		}
		if victim < 0 {
			return 0, false
		}
		if idx, ok := shards[victim].steal(); ok {
			return idx, true
		}
		// The victim drained between inspection and steal; rescan.
	}
}

func (m *Manager) failJob(j *job, err error) {
	m.failed.Add(1)
	j.mu.Lock()
	j.pl = nil
	j.state = StateFailed
	j.err = err
	j.updated = time.Now()
	m.persistLocked(j)
	j.emitLocked(j.terminalEventLocked())
	close(j.finished)
	j.mu.Unlock()
}

// runPoint executes one grid point: consult the store, else compute
// with retry-and-backoff, write through, deliver. A nil error means
// the point's payload is recorded and (with a store) durable.
func (m *Manager) runPoint(ctx context.Context, j *job, pl *scenario.Plan, idx int) error {
	if m.cfg.BeforePoint != nil {
		m.cfg.BeforePoint(j.id, idx)
	}
	var key string
	if m.cfg.Store != nil {
		var err error
		key, err = pointKey(j.kind, j.sc, idx)
		if err != nil {
			return err
		}
		if body, ok := m.cfg.Store.Get(key); ok {
			m.pointsFromStore.Add(1)
			m.deliverPoint(j, idx, body)
			return nil
		}
	}
	var body []byte
	var err error
	for attempt := 0; attempt < m.cfg.RetryMax; attempt++ {
		if attempt > 0 {
			m.retries.Add(1)
			backoff := m.cfg.RetryBase << (attempt - 1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		body, err = m.execPoint(ctx, j, pl, idx)
		if err == nil {
			break
		}
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Cancellation is not transient; do not burn retries on it.
			return err
		}
	}
	if err != nil {
		return fmt.Errorf("failed after %d attempts: %w", m.cfg.RetryMax, err)
	}
	if m.cfg.Store != nil {
		if perr := m.cfg.Store.Put(key, body); perr != nil {
			return perr
		}
		if j.kind == scenario.KindLifetime {
			// The payload is durable; its round-loop checkpoint is spent.
			if ckey, err := checkpointKey(j.kind, j.sc, idx); err == nil {
				m.cfg.Store.Delete(ckey)
			}
		}
	}
	m.pointsComputed.Add(1)
	m.deliverPoint(j, idx, body)
	return nil
}

// execPoint computes one point's payload: the plan's value for the
// point, encoded for the store. Lifetime points checkpoint their round
// loop through the store.
func (m *Manager) execPoint(ctx context.Context, j *job, pl *scenario.Plan, idx int) ([]byte, error) {
	if testPointFault != nil {
		if err := testPointFault(idx); err != nil {
			return nil, err
		}
	}
	var ck life.Checkpointer
	if m.cfg.Store != nil && j.kind == scenario.KindLifetime {
		if key, err := checkpointKey(j.kind, j.sc, idx); err == nil {
			ck = storeCheckpointer{st: m.cfg.Store, key: key}
		}
	}
	v, err := pl.Exec(ctx, idx, ck, m.cfg.CheckpointEvery)
	if err != nil {
		return nil, err
	}
	return pl.Encode(v)
}

// storeCheckpointer persists one lifetime point's round-loop state
// under its deterministic checkpoint key, making the durable store the
// resume medium: a SIGKILLed process's successor re-runs the cell from
// the last saved round instead of round 1.
type storeCheckpointer struct {
	st  *store.Store
	key string
}

func (c storeCheckpointer) Load() ([]byte, bool) { return c.st.Get(c.key) }
func (c storeCheckpointer) Save(b []byte) error  { return c.st.Put(c.key, b) }

// testPointFault, when non-nil, runs at the start of every point
// execution attempt, and an error it returns fails the attempt
// (package tests inject transient failures through it).
var testPointFault func(idx int) error

func (m *Manager) deliverPoint(j *job, idx int, body []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.payloads[idx] != nil {
		return // idempotent: a recovered duplicate cannot double-count
	}
	j.payloads[idx] = body
	j.done++
	j.updated = time.Now()
	j.emitLocked(Event{Type: "point", Index: idx, Done: j.done, Total: j.total, Payload: body})
}
