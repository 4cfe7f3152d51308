package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	"adhocradio/internal/graph"
)

// graphCache is the LRU graph cache at the heart of the service's hot path:
// repeated requests for the same canonical topology spec reuse one built
// Graph, CSR and (on dense graphs) bitmap rows included, instead of
// regenerating it per request. Keys are
// graph.Spec.Canonical() strings, so everything the generator consumes —
// kind, parameters, seed — is in the key and a cache hit can never change a
// simulation result; the end-to-end determinism test gates exactly that.
//
// Concurrent misses for the same key coalesce: the first request becomes the
// builder, later ones block on the entry's ready channel and reuse the
// result (counted as hits — they did not build). Cached graphs are shared by
// concurrent workers, which is safe because a built Graph is frozen.
type graphCache struct {
	capacity int

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

// cacheEntry is one cached topology. ready is closed by the builder once g
// and err are final; no field is written after that.
type cacheEntry struct {
	key   string
	ready chan struct{}
	g     *graph.Graph
	err   error
}

func newGraphCache(capacity int) *graphCache {
	if capacity < 1 {
		capacity = 1
	}
	return &graphCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the compiled graph for the canonical key, building it (at
// most once per residency) from spec on a miss. The boolean reports whether
// the caller reused an existing entry.
func (c *graphCache) get(key string, spec graph.Spec) (*graph.Graph, bool, error) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		ent := e.Value.(*cacheEntry)
		c.mu.Unlock()
		<-ent.ready
		if ent.err != nil {
			return nil, false, ent.err
		}
		c.hits.Add(1)
		return ent.g, true, nil
	}
	ent := &cacheEntry{key: key, ready: make(chan struct{})}
	e := c.ll.PushFront(ent)
	c.items[key] = e
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
	c.mu.Unlock()

	c.misses.Add(1)
	ent.g, ent.err = spec.Build()
	if ent.err != nil {
		// Do not cache failures: remove the entry (if still resident) so a
		// later identical request retries the build.
		c.mu.Lock()
		if cur, ok := c.items[key]; ok && cur == e {
			c.ll.Remove(e)
			delete(c.items, key)
		}
		c.mu.Unlock()
	}
	close(ent.ready)
	return ent.g, false, ent.err
}

// len returns the number of resident entries.
func (c *graphCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
