package shard

// The reshard driver: live split/merge of the partition layout with a
// cutover epoch. One POST /admin/reshard moves a set of hash slots onto
// a freshly provisioned replica set by
//
//  1. starting a slot-migration ingest on the target's primary
//     (internal/replica's /admin/migrate), which streams the moving
//     slots' event history out of the source partitions' WALs while
//     appends keep flowing,
//  2. polling until the bulk of the history has been copied,
//  3. taking the coordinator's append gate exclusively — draining every
//     in-flight append planned against the old table — freezing the
//     sources' WAL heads, finalizing the ingest, and waiting for the
//     target to report done (every acked event is now on the new owner),
//  4. pushing the successor slot table (epoch+1) to every worker — the
//     affected sets strictly, with rollback on failure — and atomically
//     installing it as the coordinator's routing,
//  5. releasing the gate and tearing the ingest down.
//
// Reads are never gated: a read that races the cutover hits a worker
// already fenced to the new epoch, gets 410 Gone, and is replanned once
// against the freshly installed table (scatterRead). A merge is the same
// flow with whole retired partitions as the sources — their event
// histories are interleaved into one time-ordered stream on the target —
// plus a renumbering that compacts the surviving partition indices.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"historygraph/internal/replica"
	"historygraph/internal/server"
)

// ReshardRequest is the POST /admin/reshard body. Target names the fresh
// replica set joining the cluster (first member its primary; the set must
// be empty and already running). Exactly one mode:
//
//   - split (Merge empty): the target becomes a new partition owning
//     Slots — or, when Slots is empty, a balanced share auto-picked from
//     the largest current owners;
//   - merge (Merge set): the listed partitions are retired and every
//     slot they own moves to the target; the survivors are renumbered
//     compactly.
type ReshardRequest struct {
	Target []string `json:"target"`
	Slots  []int    `json:"slots,omitempty"`
	Merge  []int    `json:"merge,omitempty"`
}

// ReshardStatus reports one completed reshard (GET /admin/reshard returns
// the most recent).
type ReshardStatus struct {
	Epoch      uint64 `json:"epoch"`
	Partitions int    `json:"partitions"`
	Moved      int    `json:"moved_slots"`
	Migrated   uint64 `json:"events_migrated"`
	DurationMS int64  `json:"duration_ms"`
	Merged     []int  `json:"merged,omitempty"`
	Target     string `json:"target,omitempty"`
}

func (co *Coordinator) handleReshard(w http.ResponseWriter, r *http.Request) {
	var req ReshardRequest
	if err := server.ReadBody(r, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad reshard body: %w", err))
		return
	}
	st, status, err := co.Reshard(r.Context(), req)
	if err != nil {
		server.WriteError(w, status, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, st)
}

func (co *Coordinator) handleReshardStatus(w http.ResponseWriter, r *http.Request) {
	if st := co.lastReshard.Load(); st != nil {
		server.WriteJSON(w, http.StatusOK, st)
		return
	}
	server.WriteJSON(w, http.StatusOK, &ReshardStatus{
		Epoch: co.rt().epoch(), Partitions: co.NumPartitions(),
	})
}

// Reshard runs one split or merge end to end and returns the new layout.
// The int is the HTTP status a handler should answer an error with.
func (co *Coordinator) Reshard(ctx context.Context, req ReshardRequest) (*ReshardStatus, int, error) {
	if !co.reshardMu.TryLock() {
		return nil, http.StatusConflict, fmt.Errorf("shard: a reshard is already running")
	}
	defer co.reshardMu.Unlock()
	begin := time.Now()
	rt := co.rt()

	var target []string
	for _, u := range req.Target {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			target = append(target, u)
		}
	}
	if len(target) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("shard: reshard wants a target member list")
	}
	for _, u := range target {
		for p, rs := range rt.sets {
			for _, m := range rs.members {
				if m.url == u {
					return nil, http.StatusUnprocessableEntity,
						fmt.Errorf("shard: target member %s already serves partition %d", u, p)
				}
			}
		}
	}

	plan, status, err := co.planReshard(rt, req)
	if err != nil {
		return nil, status, err
	}

	// Start the ingest on the target's primary and let it copy the bulk of
	// the moving history while appends keep flowing to the sources.
	tgt := target[0]
	if _, err := co.migrate(ctx, tgt, replica.MigrateRequest{Sources: plan.sources}); err != nil {
		return nil, http.StatusBadGateway, fmt.Errorf("shard: starting migration on %s: %w", tgt, err)
	}
	if err := co.waitCaughtUp(ctx, tgt); err != nil {
		co.stopMigration(tgt)
		return nil, http.StatusBadGateway, err
	}

	// Cutover. The exclusive gate drains every in-flight append planned
	// against the old table; with appends quiesced the sources' WAL heads
	// are final, so freezing them and waiting for the ingest to drain past
	// them proves every acked event reached the target.
	co.appendGate.Lock()
	defer co.appendGate.Unlock()
	heads := make([]uint64, len(plan.srcParts))
	for i, p := range plan.srcParts {
		st, err := co.sourceStatus(ctx, rt.sets[p].primaryMember().url)
		if err != nil {
			co.stopMigration(tgt)
			return nil, http.StatusBadGateway, fmt.Errorf("shard: freezing partition %d head: %w", p, err)
		}
		heads[i] = st.LastSeq
	}
	if _, err := co.migrate(ctx, tgt, replica.MigrateRequest{Finalize: heads}); err != nil {
		co.stopMigration(tgt)
		return nil, http.StatusBadGateway, fmt.Errorf("shard: finalizing migration: %w", err)
	}
	applied, err := co.waitMigrationDone(ctx, tgt)
	if err != nil {
		co.stopMigration(tgt)
		return nil, http.StatusBadGateway, err
	}

	next := &routing{table: plan.table, sets: plan.sets}
	if status, err := co.pushSlots(ctx, rt, next, plan); err != nil {
		co.stopMigration(tgt)
		return nil, status, err
	}
	co.installRouting(next)
	if plan.targetPart < len(next.sets) {
		co.registerSetGauges(plan.targetPart, next.sets[plan.targetPart])
	}
	co.reshards.Inc()
	co.stopMigration(tgt)

	st := &ReshardStatus{
		Epoch:      next.epoch(),
		Partitions: len(next.sets),
		Moved:      plan.moved,
		Migrated:   applied,
		DurationMS: time.Since(begin).Milliseconds(),
		Merged:     plan.merged,
		Target:     strings.Join(target, "|"),
	}
	co.lastReshard.Store(st)
	return st, 0, nil
}

// reshardPlan is everything a validated split/merge resolves to before
// any data moves.
type reshardPlan struct {
	sources    []replica.MigrateSource // migration sources, one per giving partition
	srcParts   []int                   // old partition index per source
	table      *SlotTable              // successor table (epoch+1)
	sets       []*replicaSet           // successor replica sets
	targetPart int                     // target's partition index in the successor layout
	moved      int                     // slots changing owner
	merged     []int                   // retired partitions (merge mode)
}

// planReshard validates the request against the current routing and
// resolves the successor layout.
func (co *Coordinator) planReshard(rt *routing, req ReshardRequest) (*reshardPlan, int, error) {
	n := len(rt.sets)
	targetSet := newReplicaSet(targetURLs(req.Target), co.hc)
	if len(req.Merge) > 0 {
		if len(req.Slots) > 0 {
			return nil, http.StatusBadRequest, fmt.Errorf("shard: merge and slots are mutually exclusive")
		}
		seen := map[int]bool{}
		merged := append([]int(nil), req.Merge...)
		sort.Ints(merged)
		for _, p := range merged {
			if p < 0 || p >= n {
				return nil, http.StatusUnprocessableEntity, fmt.Errorf("shard: merge partition %d out of range [0, %d)", p, n)
			}
			if seen[p] {
				return nil, http.StatusUnprocessableEntity, fmt.Errorf("shard: merge partition %d listed twice", p)
			}
			seen[p] = true
		}
		plan := &reshardPlan{merged: merged}
		var moving []int
		for _, p := range merged {
			owned := rt.table.OwnedBy(p)
			if len(owned) == 0 {
				continue
			}
			plan.sources = append(plan.sources, replica.MigrateSource{URLs: rt.sets[p].urls(), Slots: owned})
			plan.srcParts = append(plan.srcParts, p)
			moving = append(moving, owned...)
		}
		if len(plan.sources) == 0 {
			return nil, http.StatusUnprocessableEntity, fmt.Errorf("shard: merged partitions own no slots")
		}
		// The moving slots go to a temporary index past the old layout,
		// then the survivors are compacted: survivor order is preserved,
		// the target lands last.
		tmp := n
		tbl, err := rt.table.Reassign(moving, tmp)
		if err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
		renum := map[int]int{}
		for p := 0; p < n; p++ {
			if !seen[p] {
				renum[p] = len(plan.sets)
				plan.sets = append(plan.sets, rt.sets[p])
			}
		}
		plan.targetPart = len(plan.sets)
		renum[tmp] = plan.targetPart
		plan.sets = append(plan.sets, targetSet)
		// Retired owners hold no slots after the reassign, but Renumber
		// demands totality; map them to the target (no slot resolves there).
		for _, p := range merged {
			renum[p] = plan.targetPart
		}
		if plan.table, err = tbl.Renumber(renum); err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
		plan.moved = len(moving)
		return plan, 0, nil
	}

	// Split: explicit slots or a balanced auto-pick.
	moving := append([]int(nil), req.Slots...)
	if len(moving) == 0 {
		moving = pickSlots(rt.table, n)
	}
	if len(moving) == 0 {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("shard: no slots to move (every owner is down to one slot)")
	}
	sort.Ints(moving)
	bySrc := map[int][]int{}
	for i, s := range moving {
		if s < 0 || s >= NumSlots {
			return nil, http.StatusUnprocessableEntity, fmt.Errorf("shard: slot %d out of range [0, %d)", s, NumSlots)
		}
		if i > 0 && moving[i-1] == s {
			return nil, http.StatusUnprocessableEntity, fmt.Errorf("shard: slot %d listed twice", s)
		}
		p := rt.table.Slots[s]
		bySrc[p] = append(bySrc[p], s)
	}
	plan := &reshardPlan{moved: len(moving), targetPart: n}
	for p := 0; p < n; p++ {
		if slots := bySrc[p]; len(slots) > 0 {
			plan.sources = append(plan.sources, replica.MigrateSource{URLs: rt.sets[p].urls(), Slots: slots})
			plan.srcParts = append(plan.srcParts, p)
		}
	}
	tbl, err := rt.table.Reassign(moving, n)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	plan.table = tbl
	plan.sets = append(append([]*replicaSet(nil), rt.sets...), targetSet)
	return plan, 0, nil
}

// targetURLs normalizes the request's target member list.
func targetURLs(raw []string) []string {
	var out []string
	for _, u := range raw {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// pickSlots auto-picks a balanced share for a joining partition: an equal
// 1/(n+1) fraction of the slot space, drawn one slot at a time from
// whichever owner currently holds the most (never stripping an owner
// below one slot).
func pickSlots(t *SlotTable, n int) []int {
	want := NumSlots / (n + 1)
	owned := make([][]int, n)
	for s, p := range t.Slots {
		owned[p] = append(owned[p], s)
	}
	var out []int
	for len(out) < want {
		big := 0
		for p := 1; p < n; p++ {
			if len(owned[p]) > len(owned[big]) {
				big = p
			}
		}
		if len(owned[big]) <= 1 {
			break
		}
		out = append(out, owned[big][len(owned[big])-1])
		owned[big] = owned[big][:len(owned[big])-1]
	}
	sort.Ints(out)
	return out
}

// migrate posts one /admin/migrate action to the target primary, bounded
// by the partition timeout.
func (co *Coordinator) migrate(ctx context.Context, tgt string, mr replica.MigrateRequest) (*replica.MigrateStatus, error) {
	cctx, cancel := context.WithTimeout(ctx, co.timeout)
	defer cancel()
	return replica.Migrate(cctx, co.hc, tgt, mr)
}

// stopMigration tears the target's ingest down, best effort (the target
// may be the thing that just died).
func (co *Coordinator) stopMigration(tgt string) {
	ctx, cancel := context.WithTimeout(context.Background(), co.probeTimeout())
	defer cancel()
	_, _ = replica.Migrate(ctx, co.hc, tgt, replica.MigrateRequest{Stop: true})
}

// sourceStatus reads one source primary's /replstatus (its LastSeq is the
// head frozen at cutover).
func (co *Coordinator) sourceStatus(ctx context.Context, url string) (*replica.StatusJSON, error) {
	cctx, cancel := context.WithTimeout(ctx, co.probeTimeout())
	defer cancel()
	return replica.Status(cctx, co.hc, url)
}

// reshardPoll is the ingest polling cadence.
const reshardPoll = 25 * time.Millisecond

// catchupBound bounds the pre-cutover bulk copy wait. Reaching it is not
// an error: the cutover is correct regardless (the finalize covers
// whatever tail remains) — the bound only caps how long the bulk phase
// may keep the append gate cheap before the cutover proceeds anyway.
func (co *Coordinator) catchupBound() time.Duration { return 8 * co.timeout }

// waitCaughtUp polls the ingest until every source's cursor has passed
// its currently durable head — the moment the remaining tail is just
// whatever appends landed during the copy — or the bound expires.
// An ingest error aborts the reshard.
func (co *Coordinator) waitCaughtUp(ctx context.Context, tgt string) error {
	deadline := time.Now().Add(co.catchupBound())
	for {
		cctx, cancel := context.WithTimeout(ctx, co.probeTimeout())
		st, err := replica.MigrationStatus(cctx, co.hc, tgt)
		cancel()
		if err != nil {
			return fmt.Errorf("shard: polling migration on %s: %w", tgt, err)
		}
		if st.Error != "" {
			return fmt.Errorf("shard: migration failed: %s", st.Error)
		}
		caught := st.Active
		for _, s := range st.Sources {
			if s.NextFrom <= s.Head {
				caught = false
			}
		}
		if caught || time.Now().After(deadline) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(reshardPoll):
		}
	}
}

// waitMigrationDone polls the finalized ingest until done (every migrated
// record applied) and returns the applied-event count.
func (co *Coordinator) waitMigrationDone(ctx context.Context, tgt string) (uint64, error) {
	deadline := time.Now().Add(co.catchupBound())
	for {
		cctx, cancel := context.WithTimeout(ctx, co.probeTimeout())
		st, err := replica.MigrationStatus(cctx, co.hc, tgt)
		cancel()
		if err != nil {
			return 0, fmt.Errorf("shard: polling migration on %s: %w", tgt, err)
		}
		if st.Error != "" {
			return 0, fmt.Errorf("shard: migration failed: %s", st.Error)
		}
		if st.Done {
			return st.Applied, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("shard: migration did not drain within %s", co.catchupBound())
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(reshardPoll):
		}
	}
}

// pushSlots distributes the successor table's ownership to the workers.
// Sets whose ownership actually changes — the sources, the target, and
// (in a merge) the retired partitions — are pushed strictly: any failure
// rolls the already-pushed members back to the old table and aborts the
// reshard. Every other set is pushed best effort; a member that misses
// the push fences with 410 until the health loop's syncSlots heals it.
func (co *Coordinator) pushSlots(ctx context.Context, old, next *routing, plan *reshardPlan) (int, error) {
	cctx, cancel := context.WithTimeout(ctx, co.timeout)
	defer cancel()
	critical := map[*replicaSet]bool{next.sets[plan.targetPart]: true}
	for _, p := range plan.srcParts {
		critical[old.sets[p]] = true
	}

	// Old partition index per surviving set, for rollback configs.
	oldIndex := map[*replicaSet]int{}
	for p, rs := range old.sets {
		oldIndex[rs] = p
	}

	type pushed struct {
		m   *member
		old server.SlotsJSON
	}
	var done []pushed
	rollback := func() {
		rctx, rcancel := context.WithTimeout(context.Background(), co.timeout)
		defer rcancel()
		for _, pu := range done {
			_ = pu.m.client.SetSlotsCtx(rctx, pu.old)
		}
	}

	// Strict pushes first: the new owner, the sources, the retired.
	for np, rs := range next.sets {
		if !critical[rs] {
			continue
		}
		cfg := server.SlotsJSON{Epoch: next.epoch(), Slots: next.table.OwnedBy(np)}
		var oldCfg server.SlotsJSON
		if op, ok := oldIndex[rs]; ok {
			oldCfg = server.SlotsJSON{Epoch: old.epoch(), Slots: old.table.OwnedBy(op)}
		} else {
			oldCfg = server.SlotsJSON{Epoch: old.epoch()} // joining set owned nothing
		}
		for _, m := range rs.members {
			if err := m.client.SetSlotsCtx(cctx, cfg); err != nil {
				rollback()
				return http.StatusBadGateway, fmt.Errorf("shard: pushing slots to %s: %w", m.url, err)
			}
			done = append(done, pushed{m: m, old: oldCfg})
		}
	}
	// Retired sets leave the layout owning nothing; they keep their data
	// but fence and filter everything, so double-serving is impossible
	// even if a stale client reaches them directly.
	for _, p := range plan.merged {
		rs := old.sets[p]
		oldCfg := server.SlotsJSON{Epoch: old.epoch(), Slots: old.table.OwnedBy(p)}
		for _, m := range rs.members {
			if err := m.client.SetSlotsCtx(cctx, server.SlotsJSON{Epoch: next.epoch()}); err != nil {
				rollback()
				return http.StatusBadGateway, fmt.Errorf("shard: pushing slots to retired %s: %w", m.url, err)
			}
			done = append(done, pushed{m: m, old: oldCfg})
		}
	}
	// Best-effort pushes: untouched survivors need the epoch bump too
	// (their slots are unchanged), but a miss here only fences that set
	// until the health loop re-pushes.
	for np, rs := range next.sets {
		if critical[rs] {
			continue
		}
		cfg := server.SlotsJSON{Epoch: next.epoch(), Slots: next.table.OwnedBy(np)}
		for _, m := range rs.members {
			_ = m.client.SetSlotsCtx(cctx, cfg)
		}
	}
	return 0, nil
}

// installRouting atomically swaps the coordinator's routing and drops the
// merged-response cache (entries were merged under the old layout; after
// a migration the same timepoint merges from a different set of workers,
// and a stale entry would hide that).
func (co *Coordinator) installRouting(next *routing) {
	co.routing.Store(next)
	co.cache.Purge()
}

// syncSlots heals worker slot state from the health loop: any member of
// the installed layout whose reported epoch disagrees gets the installed
// ownership re-pushed. This covers members that missed the cutover push
// and workers restarted since (ownership is in-memory state).
func (co *Coordinator) syncSlots(rt *routing) {
	ctx, cancel := context.WithTimeout(context.Background(), co.probeTimeout())
	defer cancel()
	for p, rs := range rt.sets {
		var desired *server.SlotsJSON
		for _, m := range rs.members {
			cur, err := m.client.SlotsCtx(ctx)
			if err != nil || cur.Epoch == rt.epoch() {
				continue
			}
			if desired == nil {
				desired = &server.SlotsJSON{Epoch: rt.epoch(), Slots: rt.table.OwnedBy(p)}
			}
			_ = m.client.SetSlotsCtx(ctx, *desired)
		}
	}
}
