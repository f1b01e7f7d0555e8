package server

// The observability middleware every serving role (worker, coordinator,
// replica node) wraps its mux with: per-endpoint latency histograms and
// status-class counters, X-Request-ID propagation, and a threshold-gated
// slow-query log line. The middleware is the single place a request's
// wall time is measured, so the worker and the coordinator report
// latency identically.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"historygraph/internal/metrics"
)

// RequestIDHeader carries the request ID across hops: client → shard
// coordinator → scatter legs → workers. The middleware honors an
// incoming value (so every leg of one logical request logs the same ID)
// and mints one otherwise; the Client forwards it on outgoing calls.
const RequestIDHeader = "X-Request-ID"

type ctxKey int

const (
	ridKey ctxKey = iota
	traceKey
	epochKey
	noStoreKey
)

// WithRequestID returns ctx carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridKey, id)
}

// RequestIDFrom returns the request ID threaded through ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ridKey).(string)
	return id
}

// Request IDs are a per-process random prefix plus a counter: unique
// across the cluster for any practical window without a per-request
// crypto/rand read on the hot path.
var (
	ridPrefix = func() string {
		var b [4]byte
		rand.Read(b[:])
		return hex.EncodeToString(b[:])
	}()
	ridCounter atomic.Uint64
)

func newRequestID() string {
	return ridPrefix + "-" + strconv.FormatUint(ridCounter.Add(1), 16)
}

// reqTrace accumulates the handler-supplied annotations (cache outcome,
// partition count) that the slow-query log line reports. It is only
// allocated when slow-query logging is enabled, so Annotate is a nil
// context-value check on every other configuration.
type reqTrace struct {
	mu     sync.Mutex
	fields []string
}

// Annotate attaches a key=value pair to the request's slow-query trace.
// It is a no-op unless the serving layer was configured with a
// SlowQueryThreshold, so handlers call it unconditionally.
func Annotate(ctx context.Context, key, value string) {
	tr, _ := ctx.Value(traceKey).(*reqTrace)
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.fields = append(tr.fields, key+"="+value)
	tr.mu.Unlock()
}

func (tr *reqTrace) String() string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.fields) == 0 {
		return ""
	}
	return " " + strings.Join(tr.fields, " ")
}

// Instrumentation is the middleware state: the request metrics plus the
// slow-query configuration. One instance wraps one role's mux (and, on
// a replica node, the replication endpoints too, so every request into
// the process lands in the same registry).
type Instrumentation struct {
	reqs *metrics.CounterVec   // dg_http_requests_total{endpoint,code}
	lat  *metrics.HistogramVec // dg_http_request_duration_seconds{endpoint}
	slow *metrics.Counter      // dg_slow_queries_total

	slowThreshold time.Duration
	known         map[string]bool // endpoint label whitelist (bounds cardinality)
	logf          func(format string, v ...any)
}

// NewInstrumentation registers the request metrics on reg. endpoints is
// the set of paths reported verbatim in the endpoint label; anything
// else is folded into "other" so an URL-scanning client cannot mint
// unbounded label values. slowThreshold > 0 enables the slow-query log.
func NewInstrumentation(reg *metrics.Registry, endpoints []string, slowThreshold time.Duration) *Instrumentation {
	ins := &Instrumentation{
		reqs:          reg.CounterVec("dg_http_requests_total", "HTTP requests by endpoint and status class.", "endpoint", "code"),
		lat:           reg.HistogramVec("dg_http_request_duration_seconds", "HTTP request wall time by endpoint.", nil, "endpoint"),
		slow:          reg.Counter("dg_slow_queries_total", "Requests that exceeded the slow-query threshold."),
		slowThreshold: slowThreshold,
		known:         make(map[string]bool, len(endpoints)),
		logf:          log.Printf,
	}
	for _, e := range endpoints {
		ins.known[e] = true
	}
	return ins
}

// Requests returns the total request count across every endpoint and
// status class — the registry-derived value /stats reports.
func (ins *Instrumentation) Requests() int64 { return ins.reqs.Total() }

// statusWriter records the response status. It forwards Flush so the
// streaming paths keep their per-run flushing through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func codeClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// Wrap returns next instrumented: request counted and timed under its
// endpoint label, request ID threaded (and echoed in the response), and
// the slow-query line emitted when the threshold is exceeded.
func (ins *Instrumentation) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		ctx := WithRequestID(r.Context(), id)
		var tr *reqTrace
		if ins.slowThreshold > 0 {
			tr = &reqTrace{}
			ctx = context.WithValue(ctx, traceKey, tr)
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		dur := time.Since(start)
		endpoint := r.URL.Path
		if !ins.known[endpoint] {
			endpoint = "other"
		}
		ins.lat.With(endpoint).Observe(dur.Seconds())
		ins.reqs.With(endpoint, codeClass(sw.code)).Inc()
		if tr != nil && dur >= ins.slowThreshold {
			ins.slow.Inc()
			ins.logf("slow query: method=%s endpoint=%s query=%q%s status=%d dur=%s req=%s",
				r.Method, endpoint, r.URL.RawQuery, tr.String(), sw.code, dur.Round(time.Microsecond), id)
		}
	})
}
