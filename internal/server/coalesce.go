package server

import (
	"sync"

	"historygraph/internal/metrics"
)

// flightCall is one in-flight execution that late arrivals wait on.
type flightCall struct {
	wg  sync.WaitGroup
	val any
	err error
}

// FlightGroup coalesces concurrent executions of the same key into one
// (hand-rolled singleflight: the serving layer may not pull in external
// dependencies). The first caller for a key runs fn; callers that arrive
// while it is running block and share its result. Once the call finishes
// the key is forgotten, so later calls execute afresh — the hot-snapshot
// cache, not the flight group, is responsible for longer-term reuse.
// The zero value is ready to use. The shard coordinator reuses it to
// coalesce whole scatter-gather fan-outs.
type FlightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall

	// Hits/Misses, when set by the owner, count the group as a cache
	// level (cache="flight"): a hit is a caller served by another
	// caller's in-flight execution, a miss is an execution led.
	Hits   *metrics.Counter
	Misses *metrics.Counter
}

// Do executes fn once per key at a time. shared reports whether the result
// came from another caller's execution rather than this caller's own.
func (g *FlightGroup) Do(key string, fn func() (any, error)) (v any, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		if g.Hits != nil {
			g.Hits.Inc()
		}
		c.wg.Wait()
		return c.val, true, c.err
	}
	if g.Misses != nil {
		g.Misses.Inc()
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.val, false, c.err
}
