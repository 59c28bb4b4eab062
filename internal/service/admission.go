package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Admission-control errors, mapped to HTTP statuses by the handlers:
// a full queue sheds with 429 + Retry-After, a draining server
// answers 503.
var (
	errQueueFull = errors.New("service: job queue full")
	errDraining  = errors.New("service: server draining")
)

// pool is the admission-controlled worker pool between the HTTP
// handlers and the simulator: a fixed number of workers pull jobs
// from a bounded queue, and a job that finds every slot taken is
// rejected immediately — load is shed at the door instead of piling
// up latency. A slot is held from admission until the job finishes,
// so at most workers + queueCap jobs are admitted and unfinished,
// whether or not an idle worker has reached its receive yet. Each job
// carries its request's context; a job whose context has already
// expired by the time a worker picks it up is skipped, not executed.
type pool struct {
	mu       sync.Mutex
	draining bool
	slots    chan struct{} // one token per admitted, unfinished job
	tasks    chan *task    // as large as slots: a send never blocks
	wg       sync.WaitGroup
}

type task struct {
	ctx  context.Context
	fn   func(context.Context) ([]byte, error)
	body []byte
	err  error
	done chan struct{}
}

// newPool starts workers goroutines over a queue of capacity queueCap.
// workers <= 0 means GOMAXPROCS; queueCap < 0 means no queue (a job is
// admitted only if a worker is free).
func newPool(workers, queueCap int) *pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := workers + max(queueCap, 0)
	p := &pool{slots: make(chan struct{}, n), tasks: make(chan *task, n)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		if err := t.ctx.Err(); err != nil {
			t.err = err
		} else {
			t.body, t.err = t.fn(t.ctx)
		}
		<-p.slots // before done: a caller's next job must find the slot free
		close(t.done)
	}
}

// Do submits fn and waits for its completion or for ctx to expire,
// whichever is first. It never blocks on admission: with every slot
// taken it returns errQueueFull at once. When ctx expires while the job is
// queued or running, Do returns the context's error immediately; a
// queued job whose context expired is discarded by the worker without
// running.
func (p *pool) Do(ctx context.Context, fn func(context.Context) ([]byte, error)) ([]byte, error) {
	t := &task{ctx: ctx, fn: fn, done: make(chan struct{})}
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return nil, errDraining
	}
	select {
	case p.slots <- struct{}{}:
		p.tasks <- t
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		return nil, errQueueFull
	}
	select {
	case <-t.done:
		return t.body, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// QueueDepth returns the number of admitted jobs no worker has picked
// up yet.
func (p *pool) QueueDepth() int { return len(p.tasks) }

// CloseAdmission stops admission: by the time it returns, every
// subsequent Do fails with errDraining. Safe to call more than once.
func (p *pool) CloseAdmission() {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		close(p.tasks)
	}
	p.mu.Unlock()
}

// AwaitIdle waits until the workers have finished all admitted jobs,
// queued ones included, or until ctx expires. Call CloseAdmission
// first; the workers only exit once the queue is closed and empty.
func (p *pool) AwaitIdle(ctx context.Context) error {
	idle := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
