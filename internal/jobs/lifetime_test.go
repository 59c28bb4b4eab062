package jobs

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"wsnbcast/internal/life"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/store"
)

// lifetimeScenario is a small study whose batteries die within the
// round budget: 2 strategies x 2 churn rates x 2 replications = 8
// cells, each a few dozen 8x8 broadcast rounds.
func lifetimeScenario() scenario.Scenario {
	return scenario.Scenario{
		Name:     "jobs-life",
		Topology: scenario.TopologySpec{Kind: "2d4", M: 8, N: 8},
		Sources:  []scenario.Point{{X: 4, Y: 4}},
		Lifetime: &scenario.LifetimeSpec{
			BudgetJ:      0.004,
			MaxRounds:    48,
			Seed:         11,
			Replications: 2,
			Strategies:   []string{"static", "residual"},
			ChurnRates:   []float64{0, 0.05},
			PNew:         0.3,
		},
	}
}

func syncLifetimeBody(t *testing.T, sc scenario.Scenario) []byte {
	t.Helper()
	rep, err := newPlan(t, scenario.KindLifetime, sc).Run(context.Background(), 4, nil)
	if err != nil {
		t.Fatalf("sync lifetime: %v", err)
	}
	body, err := store.EncodeBody(rep)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return body
}

// TestLifetimeJobMatchesSync: the merged lifetime job result is
// byte-identical to the synchronous POST /v1/lifetime body at every
// worker count.
func TestLifetimeJobMatchesSync(t *testing.T) {
	sc := lifetimeScenario()
	want := syncLifetimeBody(t, sc)
	for _, workers := range []int{1, 4} {
		m := NewManager(Config{Workers: workers})
		_, got := submitAndWait(t, m, scenario.KindLifetime, sc)
		if !bytes.Equal(got, want) {
			t.Errorf("lifetime job with %d workers: result differs from synchronous body", workers)
		}
		if err := m.Close(context.Background()); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// TestLifetimeKindGate: a lifetime section only runs under the
// lifetime kind, and the lifetime kind needs a lifetime section.
func TestLifetimeKindGate(t *testing.T) {
	for _, kind := range []string{scenario.KindRun, scenario.KindScenario} {
		if _, err := scenario.NewPlan(kind, lifetimeScenario()); err == nil {
			t.Errorf("kind %s accepted a lifetime section", kind)
		}
	}
	if _, err := scenario.NewPlan(scenario.KindLifetime, runScenario()); err == nil {
		t.Error("lifetime kind accepted a document without a lifetime section")
	}
}

// cancelAfterSaves checkpoints through the store and cancels the run
// context once `after` saves have landed — a deterministic stand-in
// for SIGKILL between two checkpoint cadences.
type cancelAfterSaves struct {
	inner  storeCheckpointer
	after  int
	saves  int
	cancel context.CancelFunc
}

func (c *cancelAfterSaves) Load() ([]byte, bool) { return c.inner.Load() }

func (c *cancelAfterSaves) Save(b []byte) error {
	if err := c.inner.Save(b); err != nil {
		return err
	}
	c.saves++
	if c.saves == c.after {
		c.cancel()
	}
	return nil
}

// countingCkpt counts successful Loads, to prove a resume actually
// consumed the durable checkpoint instead of restarting.
type countingCkpt struct {
	inner storeCheckpointer
	loads int
}

func (c *countingCkpt) Load() ([]byte, bool) {
	b, ok := c.inner.Load()
	if ok {
		c.loads++
	}
	return b, ok
}

func (c *countingCkpt) Save(b []byte) error { return c.inner.Save(b) }

// TestLifetimeCheckpointKillResume kills a lifetime point mid-cell
// (after its second checkpoint save) and re-executes it over the same
// store: the resumed run must load the durable checkpoint and produce
// the byte-identical payload of an uninterrupted run.
func TestLifetimeCheckpointKillResume(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer st.Close()
	sc := lifetimeScenario().Canonical()
	pl := newPlan(t, scenario.KindLifetime, sc)
	// execute returns the point's payload, as a job stores it.
	execute := func(ctx context.Context, ck life.Checkpointer) ([]byte, error) {
		v, err := pl.Exec(ctx, 0, ck, 4)
		if err != nil {
			return nil, err
		}
		return pl.Encode(v)
	}
	const index = 0
	key, err := checkpointKey(scenario.KindLifetime, sc, index)
	if err != nil {
		t.Fatalf("checkpoint key: %v", err)
	}

	want, err := execute(context.Background(), nil)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &cancelAfterSaves{inner: storeCheckpointer{st: st, key: key}, after: 2, cancel: cancel}
	if _, err := execute(ctx, killer); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	if killer.saves != 2 {
		t.Fatalf("killed run saved %d checkpoints, want 2", killer.saves)
	}
	if _, ok := st.Get(key); !ok {
		t.Fatal("no durable checkpoint after the kill")
	}

	resumer := &countingCkpt{inner: storeCheckpointer{st: st, key: key}}
	got, err := execute(context.Background(), resumer)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumer.loads != 1 {
		t.Errorf("resumed run loaded %d checkpoints, want 1", resumer.loads)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed payload differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestLifetimeRestartResume tears a manager down mid-study and
// recovers on a fresh manager over the same store: durable cells come
// back from disk, the rest are recomputed, the merged result matches
// the synchronous body, and the spent checkpoints are gone.
func TestLifetimeRestartResume(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	sc := lifetimeScenario()
	const total = 8

	reached := make(chan struct{})
	release := make(chan struct{})
	var gated atomic.Bool
	m1 := NewManager(Config{
		Store:           st1,
		Workers:         1,
		CheckpointEvery: 4,
		BeforePoint: func(_ string, index int) {
			if index == 2 && gated.CompareAndSwap(false, true) {
				close(reached)
				<-release
			}
		},
	})
	sub, err := m1.Submit(newPlan(t, scenario.KindLifetime, sc))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-reached:
	case <-time.After(time.Minute):
		t.Fatal("worker never reached point 2")
	}
	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		closed <- m1.Close(ctx)
	}()
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

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	m2 := NewManager(Config{Store: st2, Workers: 4, CheckpointEvery: 4})
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
	// Cells 0 and 1 were durable before the restart (the gated cell 2
	// was cancelled before running); the second manager computes the
	// other six.
	if n := m2.Stats().PointsComputed; n != total-2 {
		t.Errorf("recovered manager computed %d points, want %d", n, total-2)
	}
	got, ok := m2.Result(sub.ID)
	if !ok {
		t.Fatal("no result after recovery")
	}
	if want := syncLifetimeBody(t, sc); !bytes.Equal(got, want) {
		t.Error("recovered result differs from synchronous body")
	}
	// Every cell's payload is durable, so every round-loop checkpoint
	// must have been deleted.
	csc := sc.Canonical()
	for i := 0; i < total; i++ {
		key, err := checkpointKey(scenario.KindLifetime, csc, i)
		if err != nil {
			t.Fatalf("checkpoint key %d: %v", i, err)
		}
		if _, ok := st2.Get(key); ok {
			t.Errorf("cell %d checkpoint survived job completion", i)
		}
	}
}
