package scenario

import (
	"context"
	"errors"
	"sync"
	"testing"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// cancellingProtocol wraps a plan's protocol: its first call cancels
// the request's context, and it records every distinct source the
// engine asks it about.
type cancellingProtocol struct {
	sim.Protocol
	cancel context.CancelFunc

	mu      sync.Mutex
	sources map[grid.Coord]bool
}

func (c *cancellingProtocol) IsRelay(t grid.Topology, src, node grid.Coord) bool {
	c.mu.Lock()
	c.sources[src] = true
	c.mu.Unlock()
	c.cancel()
	return c.Protocol.IsRelay(t, src, node)
}

func (c *cancellingProtocol) seen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sources)
}

// TestWholeSweepStopsOnCancel: a document without sources sweeps every
// node, and a cancelled request must stop that sweep within one
// broadcast per worker instead of finishing all 48x48 of them.
func TestWholeSweepStopsOnCancel(t *testing.T) {
	sc := Scenario{Topology: TopologySpec{Kind: "2d4", M: 48, N: 48}}
	for _, workers := range []int{1, 4} {
		pl, err := NewPlan(KindScenario, sc)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		wrap := &cancellingProtocol{Protocol: pl.proto, cancel: cancel, sources: map[grid.Coord]bool{}}
		pl.proto = wrap
		_, err = pl.Run(ctx, workers, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: Run = %v, want context.Canceled", workers, err)
		}
		if n := wrap.seen(); n > workers {
			t.Errorf("workers=%d: broadcast from %d of %d sources after the cancellation, want at most %d",
				workers, n, pl.topo.NumNodes(), workers)
		}
	}
}
