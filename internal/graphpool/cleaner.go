package graphpool

import (
	"sync"
	"time"
)

// Cleaner performs the paper's lazy clean-up: instead of eagerly resetting
// bits when a graph is released, a background pass periodically scans the
// pool, resets the bits of released graphs and evicts elements that belong
// to no active graph, then measures what is left (Stats.Bytes). ForceClean
// can be called when memory is low; it runs a pass immediately and is not
// interrupted.
type Cleaner struct {
	pool     *Pool
	interval time.Duration

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewCleaner creates a cleaner for the pool that runs every interval once
// started.
func NewCleaner(pool *Pool, interval time.Duration) *Cleaner {
	return &Cleaner{pool: pool, interval: interval}
}

// Start launches the background pass. Starting an already started cleaner
// is a no-op.
func (c *Cleaner) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.run(c.stop, c.done)
}

func (c *Cleaner) run(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(c.interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			c.pool.CleanNow()
			c.pool.sampledBytes.Store(c.pool.ApproxBytes())
		}
	}
}

// Stop halts the background pass and waits for it to exit. Stopping a
// stopped cleaner is a no-op.
func (c *Cleaner) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// ForceClean runs a full cleanup pass synchronously (the "system is running
// low on memory" path) and returns the number of elements liberated.
func (c *Cleaner) ForceClean() int {
	return c.pool.CleanNow()
}
