package server

import (
	"time"

	"historygraph"
	"historygraph/internal/cache"
)

// view is a retrieved GraphPool view and the manager whose pool holds it.
// Carrying the manager lets a cached view outlive a ReplaceManager swap
// just long enough to be handed back to the pool that produced it.
type view struct {
	gm *historygraph.GraphManager
	h  *historygraph.HistGraph
}

// snapCache is the hot-snapshot cache: internal/cache's policy over
// GraphPool views, keyed by (timepoint, attribute-spec). A hit serves a
// popular timepoint straight from the pool's overlaid bitmaps and skips
// DeltaGraph plan execution entirely.
//
// What is its own is the reference counting, done with the pool's
// Pin/Unpin: the cache holds one pin for as long as an entry is resident,
// and every reader takes an extra pin for the duration of its response.
// Eviction drops the cache's pin and calls Release — the pool's lazy
// cleaner then reclaims the graph's bits as soon as the last reader
// unpins, never underneath one.
type snapCache struct {
	*cache.Cache[view] // nil when caching is disabled
}

func newSnapCache(lv cache.Levels, size int) snapCache {
	return snapCache{cache.New(lv, "view", size, DefaultCacheSize, cache.Options[view]{
		// The reader's pin. It fails only on a view released out from
		// under the cache (shutdown race), which the core then drops.
		OnHit: func(v view) bool { return v.gm.Pin(v.h) == nil },
		OnEvict: func(v view) {
			v.gm.Unpin(v.h)
			v.gm.Release(v.h)
		},
	})}
}

// Acquire returns the cached view for key with a reader pin taken; the
// release func drops the pin and must be called exactly once.
func (c snapCache) Acquire(key string) (*historygraph.HistGraph, func(), bool) {
	return pinned(c.Get(key))
}

// Reacquire is Acquire without charging the hit/miss counters: the
// re-lookup after coalescing is not a cache verdict.
func (c snapCache) Reacquire(key string) (*historygraph.HistGraph, func(), bool) {
	return pinned(c.Recheck(key))
}

func pinned(v view, ok bool) (*historygraph.HistGraph, func(), bool) {
	if !ok {
		return nil, nil, false
	}
	return v.h, func() { v.gm.Unpin(v.h) }, true
}

// InsertAcquire hands a view freshly retrieved from gm to the cache,
// which owns it from now on: the view is pinned until eviction, and
// eviction Releases it back to the pool. The returned view carries a
// reader pin (so the inserting request can serve it without a re-lookup
// that could race an eviction); release must be called once. If the key
// is already resident (a racing flight finished in between), the incoming
// duplicate is released and the resident view is returned instead. A nil
// release means the view was not cached — an invalidation pass ran since
// gen was snapshotted (the view may be stale) or pinning failed — and the
// caller still owns h.
func (c snapCache) InsertAcquire(gm *historygraph.GraphManager, key string, at historygraph.Time, h *historygraph.HistGraph, gen int64, cost time.Duration) (*historygraph.HistGraph, func()) {
	// Both references are taken before the view becomes evictable.
	if err := gm.Pin(h); err != nil { // the cache's own
		return nil, nil
	}
	gm.Pin(h) // the reader's; h is active, this cannot fail
	res, ok := c.Insert(key, cache.Entry[view]{
		At: at, DepCur: h.DependsOnCurrent(), Cost: cost, Value: view{gm, h},
	}, gen)
	if !ok || res.h != h {
		gm.Unpin(h)
		gm.Unpin(h)
		if !ok {
			return nil, nil
		}
		gm.Release(h) // res is the resident view, pinned for us by OnHit
	}
	return res.h, func() { res.gm.Unpin(res.h) }
}
