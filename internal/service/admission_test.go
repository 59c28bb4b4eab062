package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsJobs(t *testing.T) {
	// Two jobs in flight plus six queued fill a pool of 2 workers and
	// capacity 6 exactly, and all eight must run. Do never blocks on
	// admission, so the two long jobs occupy both workers before the
	// other six are submitted.
	p := newPool(2, 6)
	defer drain(t, p)
	var n atomic.Int64
	var wg sync.WaitGroup
	submit := func(fn func(context.Context) ([]byte, error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := p.Do(context.Background(), fn)
			if err != nil || string(body) != "ok" {
				t.Errorf("Do = %q, %v", body, err)
			}
		}()
	}
	release := make(chan struct{})
	running := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		submit(func(context.Context) ([]byte, error) {
			n.Add(1)
			running <- struct{}{}
			<-release
			return []byte("ok"), nil
		})
	}
	<-running
	<-running
	for i := 0; i < 6; i++ {
		submit(func(context.Context) ([]byte, error) {
			n.Add(1)
			return []byte("ok"), nil
		})
	}
	close(release)
	wg.Wait()
	if n.Load() != 8 {
		t.Errorf("ran %d jobs, want 8", n.Load())
	}
}

func TestPoolQueueFull(t *testing.T) {
	p := newPool(1, 1)
	defer drain(t, p)
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	go p.Do(context.Background(), func(context.Context) ([]byte, error) {
		close(started)
		<-release
		return nil, nil
	})
	<-started
	// Worker busy; this one fills the queue slot.
	go p.Do(context.Background(), func(context.Context) ([]byte, error) { return nil, nil })
	deadline := time.Now().Add(5 * time.Second)
	for len(p.tasks) != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Do(context.Background(), func(context.Context) ([]byte, error) { return nil, nil }); !errors.Is(err, errQueueFull) {
		t.Errorf("err = %v, want errQueueFull", err)
	}
}

// A pool with no queue admits one job per worker, counted from
// admission to completion: a fresh pool admits its first job before
// any worker has reached its receive, a caller's next job finds the
// slot of its finished one free, and a job is shed while another runs.
func TestPoolNoQueueAdmitsPerWorker(t *testing.T) {
	for i := 0; i < 50; i++ {
		p := newPool(1, -1)
		for j := 0; j < 3; j++ {
			body, err := p.Do(context.Background(), func(context.Context) ([]byte, error) { return []byte("ok"), nil })
			if err != nil || string(body) != "ok" {
				t.Fatalf("fresh pool %d, job %d: Do = %q, %v", i, j, body, err)
			}
		}
		drain(t, p)
	}
	p := newPool(1, -1)
	defer drain(t, p)
	release := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func(context.Context) ([]byte, error) {
		close(started)
		<-release
		return nil, nil
	})
	<-started
	if _, err := p.Do(context.Background(), func(context.Context) ([]byte, error) { return nil, nil }); !errors.Is(err, errQueueFull) {
		t.Errorf("second job with the only worker busy: err = %v, want errQueueFull", err)
	}
	close(release)
}

func TestPoolSkipsExpiredQueuedJob(t *testing.T) {
	p := newPool(1, 2)
	defer drain(t, p)
	release := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func(context.Context) ([]byte, error) {
		close(started)
		<-release
		return nil, nil
	})
	<-started

	// Queue a job, then expire its context before any worker is free:
	// the caller returns at once and the worker must discard the job
	// without running it.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := p.Do(ctx, func(context.Context) ([]byte, error) {
			ran.Store(true)
			return nil, nil
		})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(p.tasks) != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	drain(t, p) // the worker consumes the dead task on the way out
	if ran.Load() {
		t.Error("expired queued job was executed")
	}
}

func TestPoolDrainRejectsAndWaits(t *testing.T) {
	p := newPool(1, 2)
	release := make(chan struct{})
	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		_, err := p.Do(context.Background(), func(context.Context) ([]byte, error) {
			close(started)
			<-release
			return nil, nil
		})
		result <- err
	}()
	<-started
	p.CloseAdmission()
	if _, err := p.Do(context.Background(), func(context.Context) ([]byte, error) { return nil, nil }); !errors.Is(err, errDraining) {
		t.Fatalf("err = %v, want errDraining", err)
	}
	// AwaitIdle must not return while the job is still running.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if err := p.AwaitIdle(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AwaitIdle = %v, want deadline exceeded while job runs", err)
	}
	cancel()
	close(release)
	if err := p.AwaitIdle(context.Background()); err != nil {
		t.Fatalf("AwaitIdle after release = %v", err)
	}
	if err := <-result; err != nil {
		t.Errorf("admitted job err = %v, want nil (drain waits for it)", err)
	}
}

func drain(t *testing.T, p *pool) {
	t.Helper()
	p.CloseAdmission()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.AwaitIdle(ctx); err != nil {
		t.Fatalf("pool did not drain: %v", err)
	}
}
