package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test carries no spans of its own yet).
// Times are nanoseconds since the tracer started. Spans of one client
// operation share op; parent is the id of the enclosing span, -1 for the
// operation's root.
type span struct {
	id, parent int32
	op         int32
	name       string
	start, end int64
}

// tracer keeps spans in memory until the run ends. The benchmark has one
// closed-loop client, so "the enclosing span" is a single stack; the mutex
// only covers the streaming append, whose HTTP exchange runs on a helper
// goroutine.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int32
	ops   int32
	on    bool // spans are recorded only while on (timed rounds of traced runs)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id, or
// -1 when the tracer is off. A nil tracer is off.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else {
		t.ops++
	}
	t.spans = append(t.spans, span{id: id, parent: parent, op: t.ops, name: name, start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id and every span opened inside it that is still open.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	at := len(t.stack) - 1
	for at >= 0 && t.stack[at] != id {
		at--
	}
	if at < 0 {
		return // already closed by an enclosing end
	}
	for _, open := range t.stack[at:] {
		t.spans[open].end = now
	}
	t.stack = t.stack[:at]
}

func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children are merged first,
// so time two children share is subtracted once; a child is clipped to its
// parent, so a child that outlives it cannot drive self time negative.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		ivs := kids[s.id]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, c := range ivs {
			lo, hi := max(c.lo, s.start), min(c.hi, s.end)
			if hi <= lo {
				continue
			}
			if curHi < curLo || lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// layerOf is the part of a span name before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanStats sums spans by name: how many, total and self milliseconds.
type spanStat struct {
	count           int
	totalMS, selfMS float64
}

func summarize(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	out := make(map[string]spanStat)
	for i, s := range spans {
		st := out[s.name]
		st.count++
		st.totalMS += float64(s.end-s.start) / 1e6
		st.selfMS += float64(self[i]) / 1e6
		out[s.name] = st
	}
	return out
}

// write stores the spans as JSON: {"unit":"ns","spans":[{...},...]} with
// one object per span in start order.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"unit":"ns","spans":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%q,\"start\":%d,\"end\":%d}", s.id, s.parent, s.op, s.name, s.start, s.end)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTransport records the two network halves of a client call: the
// round trip up to the response headers (request write, server handler,
// first byte back) and the reading of the body.
type tracedTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := tt.t.begin("http.roundtrip")
	resp, err := tt.next.RoundTrip(req)
	tt.t.end(id)
	if err == nil {
		resp.Body = &tracedBody{ReadCloser: resp.Body, t: tt.t, id: -1}
	}
	return resp, err
}

// tracedBody is one span from the first Read of a response body to its
// end; the client reads the whole body before it decodes, so the span
// holds transfer time and no decode time.
type tracedBody struct {
	io.ReadCloser
	t    *tracer
	id   int32
	open bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	if !b.open {
		b.id, b.open = b.t.begin("http.body"), true
	}
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.t.end(b.id)
		b.id = -1
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.t.end(b.id)
	b.id = -1
	return b.ReadCloser.Close()
}
