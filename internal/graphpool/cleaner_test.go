package graphpool

import (
	"testing"
	"time"
)

func TestCleanerBackgroundPass(t *testing.T) {
	p := New()
	id := p.OverlaySnapshot(buildSnapshot(20), 1)
	c := NewCleaner(p, time.Millisecond)
	c.Start()
	c.Start() // double start is a no-op
	defer c.Stop()

	if err := p.Release(id); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.Stats().PoolNodes == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := p.Stats().PoolNodes; n != 0 {
		t.Errorf("background cleaner left %d nodes", n)
	}
	c.Stop()
	c.Stop() // double stop is a no-op
}

func TestCleanerForceClean(t *testing.T) {
	p := New()
	id := p.OverlaySnapshot(buildSnapshot(10), 1)
	c := NewCleaner(p, time.Hour) // never fires on its own
	p.Release(id)
	if n := c.ForceClean(); n == 0 {
		t.Error("ForceClean removed nothing")
	}
	if p.Stats().PoolNodes != 0 {
		t.Error("pool not emptied")
	}
}
