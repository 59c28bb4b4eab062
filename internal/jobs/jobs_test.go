package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsnbcast/internal/scenario"
	"wsnbcast/internal/store"
)

func sweepScenario() scenario.Scenario {
	return scenario.Scenario{
		Name:     "jobs-sweep",
		Topology: scenario.TopologySpec{Kind: "2d4", M: 6, N: 6},
	}
}

func reliabilityScenario() scenario.Scenario {
	return scenario.Scenario{
		Name:          "jobs-rel",
		Topology:      scenario.TopologySpec{Kind: "2d4", M: 4, N: 4},
		Sources:       []scenario.Point{{X: 1, Y: 1}},
		DisableRepair: true,
		Reliability: &scenario.ReliabilitySpec{
			Seed:         7,
			Replications: 16,
			LossRates:    []float64{0, 0.1},
			FailureRates: []float64{0, 0.05},
		},
	}
}

func runScenario() scenario.Scenario {
	return scenario.Scenario{
		Name:     "jobs-run",
		Topology: scenario.TopologySpec{Kind: "2d4", M: 5, N: 5},
		Sources:  []scenario.Point{{X: 3, Y: 3}},
	}
}

// syncBody renders the scenario through the synchronous serving path:
// the bytes a POST /v1/<kind> response carries.
func syncBody(t *testing.T, kind string, sc scenario.Scenario) []byte {
	t.Helper()
	sc = sc.Canonical()
	var (
		rep scenario.Report
		err error
	)
	if kind == KindSweep {
		rep, err = sc.SweepReport(context.Background(), 4, nil)
	} else {
		rep, err = sc.RunContext(context.Background())
	}
	if err != nil {
		t.Fatalf("sync %s: %v", kind, err)
	}
	body, err := store.EncodeBody(rep)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return body
}

func submitAndWait(t *testing.T, m *Manager, kind string, sc scenario.Scenario) (Status, []byte) {
	t.Helper()
	st, err := m.Submit(kind, sc)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err = m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("job state = %s (error %q), want done", st.State, st.Error)
	}
	body, ok := m.Result(st.ID)
	if !ok {
		t.Fatalf("no result for done job %s", st.ID)
	}
	return st, body
}

// TestDifferentialWorkerCounts is the distributed==serial contract:
// the merged job result is byte-identical to the synchronous serving
// path at every worker count, for every job shape.
func TestDifferentialWorkerCounts(t *testing.T) {
	cases := []struct {
		kind string
		sc   scenario.Scenario
	}{
		{KindSweep, sweepScenario()},
		{KindScenario, reliabilityScenario()},
		{KindRun, runScenario()},
	}
	for _, tc := range cases {
		want := syncBody(t, tc.kind, tc.sc)
		for _, workers := range []int{1, 2, 8} {
			m := NewManager(Config{Workers: workers})
			_, got := submitAndWait(t, m, tc.kind, tc.sc)
			if !bytes.Equal(got, want) {
				t.Errorf("%s with %d workers: result differs from synchronous body", tc.kind, workers)
			}
			if err := m.Close(context.Background()); err != nil {
				t.Fatalf("close: %v", err)
			}
		}
	}
}

// TestRestartResume checkpoints a half-finished job, tears the manager
// down, and recovers it on a fresh manager over the same store: the
// finished points must come back from disk, not be recomputed, and the
// final result must still match the synchronous body.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	sc := sweepScenario()
	total := 36

	// Gate the single worker at point 3: points 0..2 finish, point 3
	// holds until we release it during shutdown.
	reached := make(chan struct{})
	release := make(chan struct{})
	var gated atomic.Bool
	m1 := NewManager(Config{
		Store:   st1,
		Workers: 1,
		BeforePoint: func(_ string, index int) {
			if index == 3 && gated.CompareAndSwap(false, true) {
				close(reached)
				<-release
			}
		},
	})
	sub, err := m1.Submit(KindSweep, sc)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-reached:
	case <-time.After(time.Minute):
		t.Fatal("worker never reached point 3")
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		closed <- m1.Close(ctx)
	}()
	// Release the gated point only once shutdown has been signalled, so
	// the worker drains point 3 and then stops: exactly points 0..3 are
	// durable at the "crash".
	for m1.ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// "Restart": fresh store handle, fresh manager, recover.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	m2 := NewManager(Config{Store: st2, Workers: 4})
	defer m2.Close(context.Background())
	resumed, err := m2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if resumed != 1 {
		t.Fatalf("recovered %d jobs, want 1", resumed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fin, err := m2.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != StateDone || fin.Done != total {
		t.Fatalf("recovered job = %s %d/%d, want done %d/%d", fin.State, fin.Done, fin.Total, total, total)
	}

	// Points 0..3 were durable before the restart (3 finished plus the
	// gated one draining through shutdown); the second manager must
	// compute only the other 32.
	stats := m2.Stats()
	if stats.PointsComputed != uint64(total-4) {
		t.Errorf("recovered manager computed %d points, want %d (must not recompute durable points)", stats.PointsComputed, total-4)
	}
	if stats.Recovered != 1 {
		t.Errorf("recovered counter = %d, want 1", stats.Recovered)
	}

	got, ok := m2.Result(sub.ID)
	if !ok {
		t.Fatal("no result after recovery")
	}
	if want := syncBody(t, KindSweep, sc); !bytes.Equal(got, want) {
		t.Error("recovered result differs from synchronous body")
	}
}

// TestRecoverInvalidRecords: a store written by an earlier release may
// hold job records whose documents validation now rejects (down nodes
// with a lifetime section, an irregular radius beyond the reach bound).
// Recover must still succeed: an unfinished invalid job loads as failed
// with the validation error, a finished one whose result is stored
// stays done, and the valid job beside them resumes and completes.
func TestRecoverInvalidRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer st.Close()

	downLife := lifetimeScenario()
	downLife.Down = []scenario.Point{{X: 1, Y: 1}}
	wide := func(seed uint64) scenario.Scenario {
		return scenario.Scenario{
			Topology: scenario.TopologySpec{Kind: "irregular", M: 8, N: 8, Jitter: 0.2, Radius: 5, Seed: seed},
			Sources:  []scenario.Point{{X: 4, Y: 4}},
		}
	}
	const storedResult = `{"stored":true}`
	put := func(kind string, sc scenario.Scenario, state State, total int) string {
		t.Helper()
		scJSON, err := json.Marshal(sc.Canonical())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		id := jobID(kind, scJSON)
		rec, err := json.Marshal(record{ID: id, Kind: kind, Scenario: scJSON, State: state, Total: total, CreatedMs: 1})
		if err != nil {
			t.Fatalf("marshal record: %v", err)
		}
		if err := st.PutRecord(id, rec); err != nil {
			t.Fatalf("put record: %v", err)
		}
		return id
	}
	lifeID := put(KindLifetime, downLife, StateRunning, 8)
	wideQueuedID := put(KindRun, wide(1), StateQueued, 1)
	wideDoneID := put(KindRun, wide(2), StateDone, 1)
	key, err := resultKey(KindRun, wide(2).Canonical())
	if err != nil {
		t.Fatalf("result key: %v", err)
	}
	if err := st.Put(key, []byte(storedResult)); err != nil {
		t.Fatalf("put result: %v", err)
	}
	validID := put(KindRun, runScenario(), StateQueued, 1)

	m := NewManager(Config{Store: st, Workers: 2})
	defer m.Close(context.Background())
	resumed, err := m.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if resumed != 1 {
		t.Fatalf("recovered %d jobs, want 1 (only the valid one)", resumed)
	}

	for id, want := range map[string]string{
		lifeID:       "lifetime study owns node failures",
		wideQueuedID: "radius + 2*jitter",
	} {
		got, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s not loaded", id)
		}
		if got.State != StateFailed || !strings.Contains(got.Error, want) {
			t.Errorf("job %s = %s %q, want failed with %q", id, got.State, got.Error, want)
		}
	}
	if got, ok := m.Get(wideDoneID); !ok || got.State != StateDone {
		t.Errorf("finished invalid job = %+v (loaded %v), want done", got, ok)
	}
	if body, ok := m.Result(wideDoneID); !ok || string(body) != storedResult {
		t.Errorf("finished invalid job result = %q (ok %v), want the stored body", body, ok)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fin, err := m.Wait(ctx, validID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("valid job = %s %q, want done", fin.State, fin.Error)
	}
	got, _ := m.Result(validID)
	if want := syncBody(t, KindRun, runScenario()); !bytes.Equal(got, want) {
		t.Error("recovered valid job differs from synchronous body")
	}
}

// TestShortCircuitFromStore: a second manager sharing the store
// completes the same job instantly from the durable result, computing
// nothing.
func TestShortCircuitFromStore(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer st1.Close()
	sc := runScenario()
	m1 := NewManager(Config{Store: st1, Workers: 2})
	defer m1.Close(context.Background())
	_, want := submitAndWait(t, m1, KindRun, sc)

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open second store: %v", err)
	}
	defer st2.Close()
	m2 := NewManager(Config{Store: st2, Workers: 2})
	defer m2.Close(context.Background())
	stat, got := submitAndWait(t, m2, KindRun, sc)
	if stat.State != StateDone {
		t.Fatalf("second submit state = %s, want done", stat.State)
	}
	if !bytes.Equal(got, want) {
		t.Error("short-circuited result differs")
	}
	if n := m2.Stats().PointsComputed; n != 0 {
		t.Errorf("second manager computed %d points, want 0 (result was durable)", n)
	}
}

// TestRetryTransient: a point that fails twice then succeeds must be
// retried with backoff and the job must complete.
func TestRetryTransient(t *testing.T) {
	var fails atomic.Int32
	fails.Store(2)
	testExecPoint = func(ctx context.Context, kind string, sc scenario.Scenario, pl plan, idx int) ([]byte, error) {
		if idx == 0 && fails.Add(-1) >= 0 {
			return nil, errors.New("transient fault")
		}
		return executePoint(ctx, kind, sc, pl, idx, nil, 0)
	}
	defer func() { testExecPoint = nil }()

	m := NewManager(Config{Workers: 2, RetryBase: time.Millisecond})
	defer m.Close(context.Background())
	_, got := submitAndWait(t, m, KindRun, runScenario())
	if want := syncBody(t, KindRun, runScenario()); !bytes.Equal(got, want) {
		t.Error("retried result differs from synchronous body")
	}
	if r := m.Stats().Retries; r != 2 {
		t.Errorf("retries = %d, want 2", r)
	}
}

// TestRetryPermanent: a point that always fails exhausts its attempt
// budget and fails the job; resubmitting after the fault clears
// re-queues the job and it completes.
func TestRetryPermanent(t *testing.T) {
	var broken atomic.Bool
	broken.Store(true)
	testExecPoint = func(ctx context.Context, kind string, sc scenario.Scenario, pl plan, idx int) ([]byte, error) {
		if broken.Load() {
			return nil, errors.New("persistent fault")
		}
		return executePoint(ctx, kind, sc, pl, idx, nil, 0)
	}
	defer func() { testExecPoint = nil }()

	m := NewManager(Config{Workers: 2, RetryBase: time.Millisecond, RetryMax: 3})
	defer m.Close(context.Background())
	sc := runScenario()
	st, err := m.Submit(KindRun, sc)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err = m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if st.Error == "" {
		t.Error("failed job carries no error")
	}
	if n := m.Stats().Failed; n != 1 {
		t.Errorf("failed counter = %d, want 1", n)
	}

	broken.Store(false)
	st2, err := m.Submit(KindRun, sc)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st2.ID != st.ID {
		t.Fatalf("resubmit produced a different job id")
	}
	fin, err := m.Wait(ctx, st2.ID)
	if err != nil {
		t.Fatalf("wait after resubmit: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("resubmitted job state = %s (error %q), want done", fin.State, fin.Error)
	}
}

// TestWorkStealing pins one worker in each of two shards and checks
// the remaining worker steals across shard boundaries to finish every
// other point.
func TestWorkStealing(t *testing.T) {
	sc := sweepScenario() // 36 points; 3 workers => shards 0-11, 12-23, 24-35
	release := make(chan struct{})
	var mu sync.Mutex
	gated := map[int]bool{}
	m := NewManager(Config{
		Workers: 3,
		BeforePoint: func(_ string, index int) {
			if index == 0 || index == 24 {
				mu.Lock()
				first := !gated[index]
				gated[index] = true
				mu.Unlock()
				if first {
					<-release
				}
			}
		},
	})
	defer m.Close(context.Background())
	st, err := m.Submit(KindSweep, sc)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// With workers 0 and 2 pinned, progress beyond 12 points proves
	// worker 1 is stealing; all but the two pinned points must finish.
	deadline := time.After(time.Minute)
	for {
		got, _ := m.Get(st.ID)
		if got.Done == 34 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("done = %d, want 34 (work stealing stalled)", got.Done)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fin, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("state = %s, want done", fin.State)
	}
	if want := syncBody(t, KindSweep, sc); func() bool {
		got, _ := m.Result(st.ID)
		return !bytes.Equal(got, want)
	}() {
		t.Error("stolen-schedule result differs from synchronous body")
	}
}

// TestSubscribe checks the event stream: replay plus live events cover
// every point exactly once and end with the terminal event, and a
// subscription opened after completion replays everything.
func TestSubscribe(t *testing.T) {
	m := NewManager(Config{Workers: 4})
	defer m.Close(context.Background())
	sc := sweepScenario()
	st, err := m.Submit(KindSweep, sc)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	replay, ch, cancel, ok := m.Subscribe(st.ID)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer cancel()

	seen := map[int]int{}
	terminal := ""
	consume := func(e Event) {
		switch e.Type {
		case "point":
			seen[e.Index]++
			if len(e.Payload) == 0 {
				t.Errorf("point %d event has no payload", e.Index)
			}
		default:
			terminal = e.Type
		}
	}
	for _, e := range replay {
		consume(e)
	}
	timeout := time.After(2 * time.Minute)
	for terminal == "" {
		select {
		case e, open := <-ch:
			if !open {
				t.Fatal("event channel closed before terminal event")
			}
			consume(e)
		case <-timeout:
			t.Fatal("no terminal event")
		}
	}
	if terminal != "done" {
		t.Fatalf("terminal event = %q, want done", terminal)
	}
	if len(seen) != 36 {
		t.Fatalf("saw %d distinct points, want 36", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("point %d delivered %d times", idx, n)
		}
	}

	// Late subscription: everything replays, the channel is closed.
	replay2, ch2, cancel2, ok := m.Subscribe(st.ID)
	if !ok {
		t.Fatal("late subscribe failed")
	}
	defer cancel2()
	points := 0
	last := ""
	for _, e := range replay2 {
		if e.Type == "point" {
			points++
		}
		last = e.Type
	}
	if points != 36 || last != "done" {
		t.Fatalf("late replay = %d points ending %q, want 36 ending done", points, last)
	}
	if _, open := <-ch2; open {
		t.Error("late subscription channel not closed")
	}
}

// TestSubmitValidation rejects unknown kinds and broken scenarios.
func TestSubmitValidation(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close(context.Background())
	if _, err := m.Submit("explode", runScenario()); err == nil {
		t.Error("unknown kind accepted")
	}
	bad := scenario.Scenario{Name: "bad", Topology: scenario.TopologySpec{Kind: "nope", M: 2, N: 2}}
	if _, err := m.Submit(KindRun, bad); err == nil {
		t.Error("uncompilable scenario accepted")
	}
	if _, ok := m.Get("missing"); ok {
		t.Error("Get found a job that was never submitted")
	}
}

// TestStatsGauges sanity-checks the queue gauges while a job is held
// in flight.
func TestStatsGauges(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	m := NewManager(Config{
		Workers: 1,
		BeforePoint: func(string, int) {
			once.Do(func() { close(started) })
			<-release
		},
	})
	sc := sweepScenario()
	st, err := m.Submit(KindSweep, sc)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	s := m.Stats()
	if s.Running != 1 {
		t.Errorf("running = %d, want 1", s.Running)
	}
	if s.QueuedPoints != 36 {
		t.Errorf("queued points = %d, want 36", s.QueuedPoints)
	}
	if s.OldestAgeMs < 0 {
		t.Errorf("oldest age = %d, want >= 0", s.OldestAgeMs)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := m.Wait(ctx, st.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	s = m.Stats()
	if s.Running != 0 || s.QueuedPoints != 0 || s.OldestAgeMs != 0 {
		t.Errorf("post-completion gauges = %+v, want zeros", s)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := m.Submit(KindRun, runScenario()); err == nil {
		t.Error("closed manager accepted a submission")
	}
}

// TestJobIDStable: the id is content-addressed, so equivalent
// spellings of one document collapse to one job.
func TestJobIDStable(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Close(context.Background())
	a := runScenario()
	b := runScenario()
	b.Topology.Kind = "2D4" // canonicalization lowercases
	b.Protocol = "PAPER"
	sa, err := m.Submit(KindRun, a)
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	sb, err := m.Submit(KindRun, b)
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if sa.ID != sb.ID {
		t.Errorf("equivalent documents produced different job ids %s vs %s", sa.ID, sb.ID)
	}
	if n := m.Stats().Submitted; n != 1 {
		t.Errorf("submitted counter = %d, want 1 (idempotent resubmit)", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := m.Wait(ctx, sa.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
}
