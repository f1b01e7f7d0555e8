package cache

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"historygraph/internal/graph"
	"historygraph/internal/metrics"
)

// rig is one cache of strings plus a record of every OnEvict call.
type rig struct {
	*Cache[string]
	evicted []string
}

func newRig(size int, ttl time.Duration) *rig {
	r := &rig{}
	r.Cache = New(NewLevels(metrics.NewRegistry()), "t", size, 4, Options[string]{
		TTL:     ttl,
		OnEvict: func(v string) { r.evicted = append(r.evicted, v) },
	})
	return r
}

// put inserts value key under key at the current generation.
func (r *rig) put(key string, at graph.Time, depCur bool) {
	r.Insert(key, Entry[string]{At: at, DepCur: depCur, Value: key}, r.Gen())
}

// resident lists the cached keys, sorted, without touching recency or
// the counters.
func (r *rig) resident() string {
	var keys []string
	for k := range r.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

func TestCachePolicy(t *testing.T) {
	cases := []struct {
		name string
		size int
		ttl  time.Duration
		run  func(t *testing.T, r *rig)
		// expected end state
		resident string
		evicted  string // OnEvict calls, in order
		stats    Stats  // Size and Capacity are checked from resident/size
	}{
		{
			name: "generation guard refuses a late insert",
			size: 4,
			run: func(t *testing.T, r *rig) {
				gen := r.Gen()
				r.InvalidateFrom(100) // an append's pass overlaps the producer
				if _, ok := r.Insert("late", Entry[string]{At: 5, Value: "late"}, gen); ok {
					t.Error("insert with a stale generation was accepted")
				}
				if v, ok := r.Insert("fresh", Entry[string]{At: 5, Value: "fresh"}, r.Gen()); !ok || v != "fresh" {
					t.Errorf("insert at the current generation = %q, %v", v, ok)
				}
			},
			resident: "fresh",
		},
		{
			name: "purge is an invalidation pass",
			size: 4,
			run: func(t *testing.T, r *rig) {
				r.put("a", 1, false)
				gen := r.Gen()
				r.Purge()
				if _, ok := r.Insert("late", Entry[string]{At: 1, Value: "late"}, gen); ok {
					t.Error("insert across a purge was accepted")
				}
			},
			evicted: "a",
		},
		{
			name: "invalidate keeps at<t, drops at>=t and every depCur",
			size: 8,
			run: func(t *testing.T, r *rig) {
				r.put("old", 9, false)
				r.put("edge", 10, false)
				r.put("new", 11, false)
				r.put("old-cur", 3, true)
				if n := r.InvalidateFrom(10); n != 3 {
					t.Errorf("InvalidateFrom evicted %d entries, want 3", n)
				}
			},
			resident: "old",
			evicted:  "old-cur new edge", // front (newest) to back
		},
		{
			name: "ttl expiry counts one eviction and one miss",
			size: 4,
			ttl:  time.Nanosecond,
			run: func(t *testing.T, r *rig) {
				r.put("a", 1, false)
				time.Sleep(time.Millisecond)
				if _, ok := r.Get("a"); ok {
					t.Error("expired entry served")
				}
			},
			evicted: "a",
			stats:   Stats{Misses: 1, Evictions: 1},
		},
		{
			name: "lru evicts the coldest, and a hit refreshes recency",
			size: 2,
			run: func(t *testing.T, r *rig) {
				r.put("k0", 1, false)
				r.put("k1", 1, false)
				if _, ok := r.Get("k0"); !ok {
					t.Error("k0 should be resident")
				}
				r.put("k2", 1, false) // k1 is now the tail
			},
			resident: "k0 k2",
			evicted:  "k1",
			stats:    Stats{Hits: 1, Evictions: 1},
		},
		{
			name: "duplicate insert keeps and returns the resident value",
			size: 4,
			run: func(t *testing.T, r *rig) {
				r.put("k", 1, false)
				v, ok := r.Insert("k", Entry[string]{At: 1, Value: "second"}, r.Gen())
				if !ok || v != "k" {
					t.Errorf("duplicate insert = %q, %v; want the resident value", v, ok)
				}
			},
			resident: "k",
		},
		{
			name: "recheck is not counted",
			size: 4,
			run: func(t *testing.T, r *rig) {
				r.put("k", 1, false)
				r.Recheck("k")
				r.Recheck("absent")
				r.Get("absent")
			},
			resident: "k",
			stats:    Stats{Misses: 1},
		},
		{
			name: "size 0 picks the default capacity",
			size: 0,
			run: func(t *testing.T, r *rig) {
				for i := 0; i < 6; i++ {
					r.put(fmt.Sprintf("k%d", i), 1, false)
				}
			},
			resident: "k2 k3 k4 k5",
			evicted:  "k0 k1",
			stats:    Stats{Evictions: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(tc.size, tc.ttl)
			tc.run(t, r)
			if got := r.resident(); got != tc.resident {
				t.Errorf("resident = %q, want %q", got, tc.resident)
			}
			// OnEvict runs exactly once per departed entry, whatever the cause.
			if got := strings.Join(r.evicted, " "); got != tc.evicted {
				t.Errorf("OnEvict calls = %q, want %q", got, tc.evicted)
			}
			want := tc.stats
			want.Size = len(strings.Fields(tc.resident))
			if want.Capacity = tc.size; tc.size == 0 {
				want.Capacity = 4
			}
			if got := r.Stats(); got != want {
				t.Errorf("stats = %+v, want %+v", got, want)
			}
			// Purge hands everything left to OnEvict, once.
			r.evicted = nil
			r.Purge()
			sort.Strings(r.evicted)
			if got := strings.Join(r.evicted, " "); got != tc.resident || r.Len() != 0 {
				t.Errorf("purge evicted %q leaving %d, want %q leaving 0", got, r.Len(), tc.resident)
			}
		})
	}
}

// TestOnHitRefusal: a value OnHit refuses is evicted and the lookup (or
// the duplicate insert that found it) proceeds as if it were absent.
func TestOnHitRefusal(t *testing.T) {
	defunct := map[string]bool{}
	var evicted []string
	c := New(NewLevels(metrics.NewRegistry()), "t", 4, 4, Options[string]{
		OnHit:   func(v string) bool { return !defunct[v] },
		OnEvict: func(v string) { evicted = append(evicted, v) },
	})
	c.Insert("k", Entry[string]{Value: "v1"}, c.Gen())
	if v, ok := c.Get("k"); !ok || v != "v1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	defunct["v1"] = true
	if _, ok := c.Get("k"); ok {
		t.Fatal("defunct value served")
	}
	c.Insert("k", Entry[string]{Value: "v2"}, c.Gen())
	defunct["v2"] = true
	if v, ok := c.Insert("k", Entry[string]{Value: "v3"}, c.Gen()); !ok || v != "v3" {
		t.Fatalf("insert over a defunct entry = %q, %v; want it replaced by v3", v, ok)
	}
	if got := strings.Join(evicted, " "); got != "v1 v2" {
		t.Fatalf("evicted %q, want v1 v2", got)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 || st.Size != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSecondRequest: under SecondRequest a value is admitted only once its
// key has missed twice while remembered — later or concurrently — and only
// the last capacity keys that missed are remembered. Without the option
// every value is admitted.
func TestSecondRequest(t *testing.T) {
	const size = 3
	c := New(NewLevels(metrics.NewRegistry()), "t", size, size, Options[string]{SecondRequest: true})
	miss := func(key string) bool {
		t.Helper()
		if _, ok := c.Get(key); ok {
			t.Fatalf("%s: unexpected hit", key)
		}
		return c.Admit(key)
	}
	if miss("a") {
		t.Error("a value was admitted on its key's first miss")
	}
	if !miss("a") {
		t.Error("a value was refused on its key's second miss")
	}
	c.Insert("a", Entry[string]{At: 1, Value: "a"}, c.Gen())
	if v, ok := c.Get("a"); !ok || v != "a" {
		t.Errorf("third request = %q, %v; want the admitted value", v, ok)
	}

	// Two requests that miss before either computes its value: the second
	// one is the first's repeat.
	c.Get("b")
	c.Get("b")
	if !c.Admit("b") {
		t.Error("concurrent duplicate misses were refused")
	}
	if c.Admit("b") {
		t.Error("an admission did not forget its key")
	}

	// An admitted key, once invalidated, starts over.
	c.InvalidateFrom(0)
	if miss("a") {
		t.Error("an invalidated key was admitted on its next first miss")
	}

	// Remembered keys are bounded by the capacity, least recent out first.
	for _, k := range []string{"c", "d", "e"} {
		miss(k)
	}
	if miss("a") {
		t.Error("a key pushed out by capacity newer misses was still remembered")
	}
	if n := len(c.seen); n != size {
		t.Errorf("%d keys remembered, want %d", n, size)
	}
	// Refusals: a, b (the second Admit), a, c, d, e, a.
	if got := c.refused.Value(); got != 7 {
		t.Errorf("refused = %d, want 7", got)
	}

	plain := New(NewLevels(metrics.NewRegistry()), "t", size, size, Options[string]{})
	if !plain.Admit("x") {
		t.Error("a level without SecondRequest refused a first request")
	}
}

// TestNilCacheIsInert: a disabled level needs no branch at its call sites.
func TestNilCacheIsInert(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(NewLevels(reg), "off", -1, 4, Options[string]{OnEvict: func(string) { t.Error("OnEvict on a nil cache") }})
	if c != nil {
		t.Fatal("negative size must disable the level")
	}
	if _, ok := c.Get("k"); ok {
		t.Error("nil cache hit")
	}
	if _, ok := c.Recheck("k"); ok {
		t.Error("nil cache hit")
	}
	if _, ok := c.Insert("k", Entry[string]{Value: "v"}, c.Gen()); ok {
		t.Error("nil cache accepted an insert")
	}
	if c.Admit("k") {
		t.Error("nil cache admitted a value")
	}
	if n := c.InvalidateFrom(0); n != 0 {
		t.Errorf("nil cache invalidated %d", n)
	}
	c.Purge()
	if c.Len() != 0 || c.Cap() != 0 || c.Stats() != (Stats{}) {
		t.Error("nil cache reports occupancy")
	}
	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `cache="off"`) {
		t.Errorf("a disabled level registered series:\n%s", sb.String())
	}
}

// TestConcurrentUse drives every entry point from several goroutines for
// the race detector; the only invariant checked is the capacity bound.
func TestConcurrentUse(t *testing.T) {
	c := New(NewLevels(metrics.NewRegistry()), "t", 8, 8, Options[int]{TTL: time.Hour, OnEvict: func(int) {}, SecondRequest: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g+i)%24)
				if _, ok := c.Get(key); !ok && c.Admit(key) {
					c.Insert(key, Entry[int]{At: graph.Time(i), DepCur: i%7 == 0, Value: i}, c.Gen())
				}
				switch {
				case i%50 == 0:
					c.InvalidateFrom(graph.Time(i / 2))
				case i%199 == 0:
					c.Purge()
				}
				if n := c.Len(); n > c.Cap() {
					t.Errorf("len %d over capacity %d", n, c.Cap())
					return
				}
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
}
