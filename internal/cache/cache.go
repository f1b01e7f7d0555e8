// Package cache is the serving stack's one cache policy. Every level that
// remembers an answer about the graph at some timepoint — pinned pool
// views, encoded response bodies, materialized CSRs on a worker, merged
// response bodies on a coordinator — is a Cache[V] and differs only in its
// value type and in what leaving the cache means for a value.
//
// The policy, stated once:
//
//   - LRU: over capacity, the coldest entry goes.
//   - History is append-only, so an append at time t invalidates exactly
//     the entries that answer for a timepoint >= t — plus every entry
//     built by reading through the current graph (DepCur), which reads
//     the mutated live bits whatever timepoint it answers for.
//   - Every invalidation pass (InvalidateFrom, Purge) bumps a generation.
//     A producer snapshots Gen before it starts and Insert refuses when
//     the generation moved: a value computed while an append ran may
//     predate events the pass already declared visible.
//   - An optional TTL bounds how old a served entry can be, checked when
//     the entry is read.
//   - An optional second-request rule (Options.SecondRequest) admits a
//     value only once its key has missed twice: a value read once never
//     takes a slot from one read twice.
//
// A nil *Cache is a disabled cache: lookups miss, inserts are refused,
// invalidation is a no-op. Call sites need no "is caching on" branch.
package cache

import (
	"container/list"
	"math"
	"sync"
	"time"

	"historygraph/internal/graph"
	"historygraph/internal/metrics"
)

// Levels holds the dg_cache_* metric families every cache level of one
// process reports under, labelled by level name.
type Levels struct {
	hits, misses, evictions, refused *metrics.CounterVec
	entries, capacity                *metrics.GaugeVec
}

// NewLevels registers the cache metric families on reg.
func NewLevels(reg *metrics.Registry) Levels {
	return Levels{
		hits:      reg.CounterVec("dg_cache_hits_total", "Cache hits by cache level.", "cache"),
		misses:    reg.CounterVec("dg_cache_misses_total", "Cache misses by cache level.", "cache"),
		evictions: reg.CounterVec("dg_cache_evictions_total", "Cache evictions by cache level.", "cache"),
		refused:   reg.CounterVec("dg_cache_refused_total", "Values not admitted because their key had missed only once, by cache level (second-request levels only).", "cache"),
		entries:   reg.GaugeVec("dg_cache_entries", "Resident entries by cache level.", "cache"),
		capacity:  reg.GaugeVec("dg_cache_capacity", "Configured capacity by cache level.", "cache"),
	}
}

// Flight returns the hit and miss counters of the "flight" level: a
// flight group counts as a cache whose hit is a caller served by another
// caller's in-flight execution.
func (l Levels) Flight() (hits, misses *metrics.Counter) {
	return l.hits.With("flight"), l.misses.With("flight")
}

// Options is the per-cache behaviour. Hooks run with the cache locked and
// must not call back into it.
type Options[V any] struct {
	// TTL, when positive, expires an entry that long after it was
	// inserted; the expiry is noticed (and counted as an eviction) by the
	// read that finds it.
	TTL time.Duration
	// OnHit runs on a resident value about to be handed out. Returning
	// false declares the value defunct: it is evicted and the lookup
	// misses.
	OnHit func(V) bool
	// OnEvict runs exactly once for every value that leaves the cache,
	// whatever the reason.
	OnEvict func(V)
	// SecondRequest makes Admit refuse a value whose key has missed only
	// once. Every counted miss is remembered by key, without a value, for
	// the last capacity keys that missed; a key that misses again while
	// remembered — later, or concurrently with the first — is admitted. A
	// level whose values are cheap to recompute but large to hold (encoded
	// bodies) so keeps only what was asked for twice.
	SecondRequest bool
}

// Entry is one value and what the policy needs to know about it.
type Entry[V any] struct {
	At     graph.Time // latest timepoint the value depends on
	DepCur bool       // built through the current graph: any append kills it
	Value  V
}

// Body is a fully encoded response body and the content type it was
// encoded as — the value of the encoded-bytes levels (worker "encoded",
// coordinator "merged"), whose hit is a single Write of the stored bytes.
type Body struct {
	Bytes       []byte
	ContentType string
}

type slot[V any] struct {
	Entry[V]
	key   string
	added time.Time
}

// Stats is a point-in-time reading of a cache's counters and occupancy.
type Stats struct {
	Hits, Misses, Evictions int64
	Size, Capacity          int
}

// Cache is a mutex-guarded LRU under the package policy.
type Cache[V any] struct {
	capacity                         int
	opt                              Options[V]
	hits, misses, evictions, refused *metrics.Counter

	mu      sync.Mutex
	entries map[string]*list.Element // values are *slot[V]
	lru     *list.List               // front = most recently used
	gen     int64                    // invalidation passes so far
	// seen remembers the keys that missed, the least recent at the back of
	// seenOrder (SecondRequest only).
	seen      map[string]*list.Element // values are *missed
	seenOrder *list.List
}

// missed is a remembered key and whether it missed more than once.
type missed struct {
	key   string
	again bool
}

// New builds the cache level called name and registers its series on lv.
// size 0 picks def; a negative size disables the level and returns nil.
func New[V any](lv Levels, name string, size, def int, opt Options[V]) *Cache[V] {
	if size == 0 {
		size = def
	}
	if size < 0 {
		return nil
	}
	c := &Cache[V]{
		capacity: size, opt: opt,
		hits: lv.hits.With(name), misses: lv.misses.With(name), evictions: lv.evictions.With(name),
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
	if opt.SecondRequest {
		c.refused = lv.refused.With(name)
		c.seen, c.seenOrder = make(map[string]*list.Element), list.New()
	}
	lv.entries.Func(func() float64 { return float64(c.Len()) }, name)
	lv.capacity.With(name).Set(float64(size))
	return c
}

// Get returns the value cached under key, charging the verdict to the
// hit/miss counters.
func (c *Cache[V]) Get(key string) (V, bool) { return c.get(key, true) }

// Recheck is Get for a caller whose verdict was already counted (the
// re-lookup after waiting on someone else's execution).
func (c *Cache[V]) Recheck(key string) (V, bool) { return c.get(key, false) }

func (c *Cache[V]) get(key string, count bool) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.liveLocked(key); s != nil {
		v, ok = s.Value, true
	}
	if count {
		if ok {
			c.hits.Inc()
		} else {
			c.misses.Inc()
			c.rememberLocked(key)
		}
	}
	return v, ok
}

// rememberLocked notes a counted miss of key for Admit (SecondRequest only).
func (c *Cache[V]) rememberLocked(key string) {
	if c.seen == nil {
		return
	}
	if elem, ok := c.seen[key]; ok {
		elem.Value.(*missed).again = true
		c.seenOrder.MoveToFront(elem)
		return
	}
	c.seen[key] = c.seenOrder.PushFront(&missed{key: key})
	if c.seenOrder.Len() > c.capacity {
		delete(c.seen, c.seenOrder.Remove(c.seenOrder.Back()).(*missed).key)
	}
}

// liveLocked returns key's entry, refreshed as most recently used, or nil
// after evicting one that expired or that OnHit refused.
func (c *Cache[V]) liveLocked(key string) *slot[V] {
	elem, found := c.entries[key]
	if !found {
		return nil
	}
	s := elem.Value.(*slot[V])
	if c.opt.TTL > 0 && time.Since(s.added) > c.opt.TTL {
		c.removeLocked(elem)
		c.evictions.Inc()
		return nil
	}
	if c.opt.OnHit != nil && !c.opt.OnHit(s.Value) {
		c.removeLocked(elem)
		return nil
	}
	c.lru.MoveToFront(elem)
	return s
}

// Gen returns the invalidation generation; snapshot it before computing a
// value and pass it to Insert.
func (c *Cache[V]) Gen() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Admit reports whether a value for key, about to be computed for Insert
// after a Get missed, should be. It always is, except under SecondRequest:
// there only a key that missed twice while remembered is admitted (and
// forgotten). Only the last capacity keys that missed are remembered, so a
// key asked for again after that many others is refused again. A nil cache
// admits nothing.
func (c *Cache[V]) Admit(key string) bool {
	if c == nil {
		return false
	}
	if c.seen == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.seen[key]; ok && elem.Value.(*missed).again {
		c.seenOrder.Remove(elem)
		delete(c.seen, key)
		return true
	}
	c.refused.Inc()
	return false
}

// Insert registers e under key unless an invalidation pass ran since gen
// was snapshotted, in which case ok is false and the caller keeps the
// value. Otherwise resident is the value now cached under key: e.Value,
// or — when a live entry was already there (a racing producer finished
// first) — that entry's value, handed out like a hit and left in place.
func (c *Cache[V]) Insert(key string, e Entry[V], gen int64) (resident V, ok bool) {
	if c == nil {
		return resident, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return resident, false
	}
	if s := c.liveLocked(key); s != nil {
		return s.Value, true
	}
	c.entries[key] = c.lru.PushFront(&slot[V]{Entry: e, key: key, added: time.Now()})
	for c.lru.Len() > c.capacity {
		c.removeLocked(c.lru.Back())
		c.evictions.Inc()
	}
	return e.Value, true
}

func (c *Cache[V]) removeLocked(elem *list.Element) {
	s := c.lru.Remove(elem).(*slot[V])
	delete(c.entries, s.key)
	if c.opt.OnEvict != nil {
		c.opt.OnEvict(s.Value)
	}
}

// InvalidateFrom evicts every entry that answers for a timepoint >= t and
// every current-dependent one, and bumps the generation so a value being
// computed across this pass cannot register. It returns the number
// evicted.
func (c *Cache[V]) InvalidateFrom(t graph.Time) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	n := 0
	for elem := c.lru.Front(); elem != nil; {
		next := elem.Next()
		if s := elem.Value.(*slot[V]); s.At >= t || s.DepCur {
			c.removeLocked(elem)
			n++
		}
		elem = next
	}
	return n
}

// AllTime as an invalidation cut precedes every timepoint: it drops
// every entry.
const AllTime = graph.Time(math.MinInt64)

// Purge invalidates everything (shutdown, a swapped store, a new routing
// layout). It is an invalidation pass like any other: in-flight inserts
// are refused afterwards.
func (c *Cache[V]) Purge() { c.InvalidateFrom(AllTime) }

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Cap returns the configured capacity (0 for a disabled cache).
func (c *Cache[V]) Cap() int {
	if c == nil {
		return 0
	}
	return c.capacity
}

// Stats reads the counters /metrics exposes, for the /stats surfaces.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits: c.hits.Value(), Misses: c.misses.Value(), Evictions: c.evictions.Value(),
		Size: c.Len(), Capacity: c.capacity,
	}
}
