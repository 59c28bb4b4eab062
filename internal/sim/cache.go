package sim

import (
	"container/list"
	"sync"
)

// cacheBytes caps each of the package's caches. An all-sources sweep
// is cyclic, LRU's worst case, so the cap sits above the hot plans of
// the served workloads (~30 MB: paper and flooding sweeps of a dozen
// ~512-node meshes), yet a sweep of a 2¹⁷-node mesh pins no gigabytes.
const cacheBytes = 64 << 20

var (
	plans  = lru[planKey, *relayPlan]{max: cacheBytes, items: map[planKey]*list.Element{}}
	meshes = lru[meshKey, *meshEntry]{max: cacheBytes, items: map[meshKey]*list.Element{}}
)

// An lru is a byte-bounded least-recently-used cache. Each entry is
// charged the bytes its builder reports, and an insert evicts from the
// least recently used end until the total fits max again.
type lru[K comparable, V any] struct {
	mu         sync.Mutex
	max, bytes int64
	items      map[K]*list.Element // each Value a *lruEntry[K, V]
	order      list.List           // most recently used first
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// load returns k's value, building and inserting it on a miss. build
// runs outside the lock; when concurrent cold callers all build, the
// first insert wins and every caller gets its value. A value charged
// more than max is returned uncached.
func (c *lru[K, V]) load(k K, build func() (V, int64)) V {
	c.mu.Lock()
	v, ok := c.hit(k)
	c.mu.Unlock()
	if ok {
		return v
	}
	v, size := build()
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.hit(k); ok {
		return old
	}
	if size > c.max {
		return v
	}
	c.items[k] = c.order.PushFront(&lruEntry[K, V]{k, v, size})
	for c.bytes += size; c.bytes > c.max; {
		e := c.order.Remove(c.order.Back()).(*lruEntry[K, V])
		delete(c.items, e.key)
		c.bytes -= e.size
	}
	return v
}

// hit returns k's value and marks it most recently used. c.mu is held.
func (c *lru[K, V]) hit(k K) (v V, ok bool) {
	el, ok := c.items[k]
	if !ok {
		return v, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}
