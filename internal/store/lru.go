package store

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// lru is the memory tier shared by the artifact Store and the MethodCache:
// a cost-bounded least-recently-used map in front of each one's disk tier.
// Each entry costs cost(v) against capacity; the Store charges 1 per
// artifact (entry-bounded), the MethodCache len(data) (byte-bounded).
// Resident values are immutable, so eviction only drops the tier's
// reference and readers holding a value stay valid. All methods are safe
// for concurrent use.
type lru[V any] struct {
	capacity int64
	cost     func(V) int64

	mu    sync.Mutex
	byKey map[string]*list.Element // -> *lruEntry[V] inside order
	order *list.List               // front = most recently used
	used  int64                    // summed cost of the resident entries

	hits    atomic.Int64
	misses  atomic.Int64
	evicted atomic.Int64
}

type lruEntry[V any] struct {
	key string
	v   V
}

func newLRU[V any](capacity int64, cost func(V) int64) lru[V] {
	return lru[V]{
		capacity: capacity,
		cost:     cost,
		byKey:    make(map[string]*list.Element),
		order:    list.New(),
	}
}

// Hits counts lookups served from memory or disk; Evicted counts entries
// dropped from memory (the disk tier keeps them). What Misses counts is
// up to the embedding cache.
func (c *lru[V]) Hits() int64    { return c.hits.Load() }
func (c *lru[V]) Misses() int64  { return c.misses.Load() }
func (c *lru[V]) Evicted() int64 { return c.evicted.Load() }

// Len returns the number of entries resident in memory.
func (c *lru[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// resident returns the summed cost of the resident entries.
func (c *lru[V]) resident() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// get returns the value resident under key, marking it most recently used
// and counting a hit. It counts no miss.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	el, ok := c.byKey[key]
	if !ok {
		c.mu.Unlock()
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	v := el.Value.(*lruEntry[V]).v
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// put publishes v under key as the most recently used entry and returns
// the value now resident: v, or with keep set the value already resident
// under key. It then evicts from the cold end while the resident cost
// exceeds capacity, always keeping the most recent entry, so one entry
// larger than the capacity stays resident alone.
func (c *lru[V]) put(key string, v V, keep bool) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*lruEntry[V])
		if keep {
			return e.v
		}
		c.used += c.cost(v) - c.cost(e.v)
		e.v = v
	} else {
		c.byKey[key] = c.order.PushFront(&lruEntry[V]{key: key, v: v})
		c.used += c.cost(v)
	}
	for c.used > c.capacity && c.order.Len() > 1 {
		old := c.order.Remove(c.order.Back()).(*lruEntry[V])
		delete(c.byKey, old.key)
		c.used -= c.cost(old.v)
		c.evicted.Add(1)
	}
	return v
}
