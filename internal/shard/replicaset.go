package shard

// A partition served by one process is a single point of loss; a replica
// set makes it survivable. Each partition's peers form one set: member 0
// is the initial primary (appends), and reads spread round-robin across
// every in-sync member. The coordinator health-checks members, retries a
// failed read leg on the next replica, and — when a primary goes dark —
// promotes the most-caught-up reachable follower (internal/replica's
// POST /role) and re-points the rest, so the PR-2 "partial" response hole
// closes for replicated deployments: appends keep landing and no acked
// event is lost (given replica.Config.SyncFollowers >= 1 on the workers).

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"historygraph"
	"historygraph/internal/replica"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// member is one replica-set node as the coordinator sees it.
type member struct {
	url    string
	client *server.Client

	healthy atomic.Bool   // last contact attempt succeeded
	insync  atomic.Bool   // within MaxLag of the set's replication head
	applied atomic.Uint64 // last known applied WAL sequence
	ewma    atomic.Int64  // EWMA of answered-read latency in ns; 0 = unsampled
	samples atomic.Int64  // answered reads folded into the EWMA
}

// observeLatency folds one answered read into the member's latency EWMA
// (weight 1/4 — reactive enough to notice a member going slow within a
// few reads, smooth enough to ride out one GC pause).
func (m *member) observeLatency(d time.Duration) {
	for {
		old := m.ewma.Load()
		nw := int64(d)
		if old != 0 {
			nw = old + (int64(d)-old)/4
		}
		if nw <= 0 {
			nw = 1 // 0 is the unsampled sentinel
		}
		if m.ewma.CompareAndSwap(old, nw) {
			m.samples.Add(1)
			return
		}
	}
}

// trustedEwma returns the member's latency EWMA once enough reads back it
// (0 otherwise): one or two samples are noise — a single cold-cache plan
// execution must not re-route the whole set.
func (m *member) trustedEwma() int64 {
	if m.samples.Load() < minLatencySamples {
		return 0
	}
	return m.ewma.Load()
}

// replicaSet is one partition's members plus routing state.
type replicaSet struct {
	members []*member
	primary atomic.Int32  // index of the member appends go to
	rr      atomic.Uint32 // read round-robin cursor
	failMu  sync.Mutex    // serializes failovers for this set
}

// newReplicaSet builds a set whose members' clients speak binary: every
// scatter leg between our own processes is binary.
func newReplicaSet(urls []string, hc *http.Client) *replicaSet {
	rs := &replicaSet{}
	for _, u := range urls {
		cl, _ := server.NewClientHTTP(u, hc).SetWire(wire.NameBinary) // fails only for an unknown name
		m := &member{url: strings.TrimRight(u, "/"), client: cl}
		m.healthy.Store(true)
		m.insync.Store(true)
		rs.members = append(rs.members, m)
	}
	return rs
}

func (rs *replicaSet) primaryMember() *member {
	return rs.members[int(rs.primary.Load())%len(rs.members)]
}

// urls lists the member base URLs in declaration order.
func (rs *replicaSet) urls() []string {
	out := make([]string, len(rs.members))
	for i, m := range rs.members {
		out[i] = m.url
	}
	return out
}

// probeEvery is the read cadence at which latency-aware ordering inverts:
// every probeEvery-th read tries the currently demoted members first, so
// a member the EWMA has learned to avoid keeps getting sampled and can
// win reads back once it recovers.
const probeEvery = 16

// slowFactor is the routing hysteresis: a member is demoted behind its
// peers only when its latency EWMA exceeds the tier's fastest by this
// factor. Comparable members keep the plain rotation (which spreads load
// and keeps per-member caches warm deterministically); the demotion only
// kicks in for a member that is genuinely slow — overloaded, GC-bound, or
// on a bad link.
const slowFactor = 2

// minLatencySamples is how many answered reads a member needs before its
// EWMA participates in demotion decisions.
const minLatencySamples = 4

// slowFloor is the absolute half of the hysteresis: however lopsided the
// EWMAs, a member is only demoted when its average answer time actually
// hurts (a loaded box, a cross-zone link, a saturated disk — not the
// microsecond-scale jitter between two healthy members, where rerouting
// would only churn their hot caches for no latency win).
const slowFloor = 25 * time.Millisecond

// readOrder returns the members to try for a read: in-sync healthy
// replicas first (rotated round-robin so load spreads), then healthy but
// lagging ones, then everything else as a last resort — a marked-down
// member may have recovered since the last health pass. Within the ready
// tier, members whose latency EWMA is more than slowFactor times the
// tier's fastest (and above slowFloor) are moved to the back, so reads
// prefer the low-latency members; every probeEvery-th read inverts that
// order, re-probing demoted members so their EWMA can recover.
func (rs *replicaSet) readOrder() []*member {
	n := len(rs.members)
	if n == 1 {
		return rs.members
	}
	tick := rs.rr.Add(1)
	var ready, lagging, down []*member
	for i := 0; i < n; i++ {
		m := rs.members[(int(tick)+i)%n]
		switch {
		case m.healthy.Load() && m.insync.Load():
			ready = append(ready, m)
		case m.healthy.Load():
			lagging = append(lagging, m)
		default:
			down = append(down, m)
		}
	}
	fast, slow := splitSlow(ready)
	if tick%probeEvery == 0 {
		// A probe deliberately fronts the members routing currently avoids
		// — wherever they sit in the rotation — so a demoted member keeps
		// being measured and its EWMA can recover. With nothing demoted a
		// probe is an ordinary rotation read, so steady-state order is
		// untouched.
		ready = append(slow, fast...)
	} else {
		ready = append(fast, slow...)
	}
	return append(append(ready, lagging...), down...)
}

// splitSlow stably partitions a tier into the members reads should prefer
// and those slower than slowFactor x the fastest trusted EWMA (relative)
// AND slowFloor (absolute). Members without a trusted EWMA (too few
// samples) count as fast so every member gets measured before routing
// reacts to it.
func splitSlow(tier []*member) (fast, slow []*member) {
	min := int64(0)
	for _, m := range tier {
		if w := m.trustedEwma(); w > 0 && (min == 0 || w < min) {
			min = w
		}
	}
	if min == 0 {
		return tier, nil // no member measured enough yet
	}
	fast = make([]*member, 0, len(tier))
	for _, m := range tier {
		if w := m.trustedEwma(); w > slowFactor*min && w > int64(slowFloor) {
			slow = append(slow, m)
		} else {
			fast = append(fast, m)
		}
	}
	return fast, slow
}

// readFrom runs call against the set's replicas in readOrder until one
// answers, marking members up or down along the way and feeding answered
// latencies into the per-member EWMA the ordering is built from.
// Spreading reads over followers is safe because every member serves the
// same merged-exact slice once caught up; a lagging or dead member is
// simply skipped. parent is the request-scoped context the leg ctx was
// derived from: a failure after parent died is the client going away,
// not the member failing, and must not poison the member's routing state
// (a leg-timeout expiry, by contrast, is the member's fault and does).
func readFrom[T any](ctx, parent context.Context, rs *replicaSet, call func(cl *server.Client) (T, error)) (T, error) {
	v, _, err := readMember(ctx, parent, rs, call)
	return v, err
}

// readMember is readFrom that also names the member that answered: a
// PageRank job's state is member-local, so its later legs must go back to
// the same member rather than through the read rotation.
func readMember[T any](ctx, parent context.Context, rs *replicaSet, call func(cl *server.Client) (T, error)) (T, *member, error) {
	var zero T
	var lastErr error
	for _, m := range rs.readOrder() {
		begin := time.Now()
		v, err := call(m.client)
		if err == nil {
			m.healthy.Store(true)
			m.observeLatency(time.Since(begin))
			return v, m, nil
		}
		// A 4xx means the member answered and rejected the request — it is
		// healthy (and its answer time is a real latency sample), and every
		// replica would reject the same way, so neither marking it down nor
		// retrying elsewhere is right. One exception: 410 is the routing-
		// epoch fence, and epochs are member-local state (a member that
		// missed a slot push fences ahead of its peers), so a Gone rotates
		// to the next member; only when every member fences does the leg
		// fail with 410, handing the decision to the scatter retry.
		var he *server.HTTPError
		if errors.As(err, &he) && he.Status >= 400 && he.Status < 500 {
			m.healthy.Store(true)
			m.observeLatency(time.Since(begin))
			if he.Status != http.StatusGone {
				return zero, nil, err
			}
			lastErr = err
			continue
		}
		if parent.Err() != nil {
			return zero, nil, err // canceled by the caller; the member is not at fault
		}
		m.healthy.Store(false)
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return zero, nil, lastErr
}

// newBatchID mints the idempotency ID an append batch is tagged with.
func newBatchID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "" // degrade to an untagged (non-idempotent) append
	}
	return hex.EncodeToString(b[:])
}

// partBatchID derives partition p's share of an append's idempotency ID,
// for a whole-message append and a stream frame alike: a client's tag
// becomes tag.p, so the same tagged batch sent again — on either form —
// dedupes partition by partition; an untagged append gets an ID minted
// here, which still covers the coordinator's own failover retry.
func partBatchID(tag string, p int) string {
	if tag == "" {
		return newBatchID()
	}
	return tag + "." + strconv.Itoa(p)
}

// appendBatchToSet routes an append to the set's primary under the
// caller's batch ID. On failure it runs a failover (promote the
// most-caught-up reachable member) and retries once against the new
// primary. One batch ID covers both attempts: if the failed append
// actually committed on the old primary and replicated before the error
// surfaced (a follower-ack timeout, or a response lost after the WAL
// sync), the new primary recognizes the ID from the records it mirrored
// and acks instead of logging and applying the events twice.
func (co *Coordinator) appendBatchToSet(ctx context.Context, rs *replicaSet, events historygraph.EventList, batch string) (*wire.AppendResult, error) {
	pm := rs.primaryMember()
	res, err := pm.client.AppendBatchCtx(ctx, events, batch)
	if err == nil {
		pm.healthy.Store(true)
		return res, nil
	}
	// A 400/422 is the primary deliberately rejecting the batch (bad body,
	// out-of-order events) — the node is healthy and a retry elsewhere
	// would get the same answer. Deposing it over a client error would run
	// a probe sweep per bad request and could promote away a live primary.
	// A 410 is the routing-epoch fence: the batch was planned against a
	// replaced table, and the right retry is a re-route (retryGoneAppends),
	// not a failover within the same now-wrong set.
	var he *server.HTTPError
	if errors.As(err, &he) &&
		(he.Status == http.StatusBadRequest || he.Status == http.StatusUnprocessableEntity || he.Status == http.StatusGone) {
		pm.healthy.Store(true)
		return nil, err
	}
	pm.healthy.Store(false)
	if len(rs.members) == 1 {
		return nil, err
	}
	if ferr := co.failover(rs, pm); ferr != nil {
		return nil, fmt.Errorf("%s (failover: %s)", err, ferr)
	}
	if next := rs.primaryMember(); next != pm {
		return next.client.AppendBatchCtx(ctx, events, batch)
	}
	return nil, err
}

// failover re-elects a primary for the set: probe every member's
// /replstatus, keep an already-promoted or recovered primary if one
// answers, otherwise promote the most-caught-up reachable member and
// re-point the others at it. The suspect is the member the caller just
// watched fail; it is never promoted.
func (co *Coordinator) failover(rs *replicaSet, suspect *member) error {
	rs.failMu.Lock()
	defer rs.failMu.Unlock()
	if rs.primaryMember() != suspect {
		return nil // a concurrent caller already failed over
	}
	ctx, cancel := context.WithTimeout(context.Background(), co.probeTimeout())
	defer cancel()

	best := -1
	var bestApplied uint64
	promoted := -1
	for i, m := range rs.members {
		st, err := replica.Status(ctx, co.hc, m.url)
		if err != nil {
			m.healthy.Store(false)
			continue
		}
		m.healthy.Store(true)
		m.applied.Store(st.AppliedSeq)
		if m == suspect {
			if st.Role == replica.RolePrimary.String() {
				// The append failure was transient: the primary still
				// answers and still leads. Keep it.
				return nil
			}
			continue
		}
		if st.Role == replica.RolePrimary.String() {
			promoted = i // someone already promoted this member
		}
		if best == -1 || st.AppliedSeq > bestApplied {
			best, bestApplied = i, st.AppliedSeq
		}
	}
	if promoted >= 0 {
		best = promoted
	} else {
		if best < 0 {
			return fmt.Errorf("no reachable replica to promote")
		}
		if err := replica.SetRole(ctx, co.hc, rs.members[best].url, replica.RolePrimary, ""); err != nil {
			return err
		}
	}
	rs.primary.Store(int32(best))
	co.failovers.Inc()
	// Best effort: surviving members follow the new primary; the deposed
	// suspect is told too in case it is merely partitioned from us.
	for i, m := range rs.members {
		if i == best {
			continue
		}
		_ = replica.SetRole(ctx, co.hc, m.url, replica.RoleFollower, rs.members[best].url)
	}
	return nil
}

// healthLoop periodically probes every replica-set member, refreshing
// healthy/in-sync routing state and triggering failover when a primary
// has gone dark. Single-member sets are plain workers and are skipped.
func (co *Coordinator) healthLoop(interval time.Duration) {
	defer close(co.healthDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-ticker.C:
		}
		rt := co.rt()
		for _, rs := range rt.sets {
			if len(rs.members) > 1 {
				co.checkSet(rs)
			}
		}
		if rt.epoch() > 1 {
			// Post-reshard healing: a worker that missed the cutover's slot
			// push (briefly down) or restarted since (slot config is
			// in-memory) would serve its boot-time ownership view. Re-push
			// the installed table to any member whose epoch disagrees.
			co.syncSlots(rt)
		}
	}
}

// checkSet refreshes one set's member state from /replstatus probes.
func (co *Coordinator) checkSet(rs *replicaSet) {
	ctx, cancel := context.WithTimeout(context.Background(), co.probeTimeout())
	defer cancel()
	var head uint64 // replication head: the highest sequence any member holds
	stats := make([]*replica.StatusJSON, len(rs.members))
	for i, m := range rs.members {
		st, err := replica.Status(ctx, co.hc, m.url)
		if err != nil {
			m.healthy.Store(false)
			continue
		}
		m.healthy.Store(true)
		m.applied.Store(st.AppliedSeq)
		stats[i] = st
		if st.LastSeq > head {
			head = st.LastSeq
		}
	}
	for i, m := range rs.members {
		if stats[i] == nil {
			continue
		}
		lag := head - stats[i].AppliedSeq
		m.insync.Store(lag <= MaxLag)
	}
	if pm := rs.primaryMember(); !pm.healthy.Load() {
		_ = co.failover(rs, pm) // promote the most-caught-up survivor
	}
}

// probeTimeout bounds one failover/health status probe.
func (co *Coordinator) probeTimeout() time.Duration {
	if co.timeout < 3*time.Second {
		return co.timeout
	}
	return 3 * time.Second
}
