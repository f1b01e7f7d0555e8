package replica

// Automated truncate-and-resync. A follower's WAL can diverge from its
// primary's: the classic case is a deposed primary rejoining after a
// failover while holding an unacked tail the promoted follower never
// fetched. Divergence used to be an operator problem (wipe the WAL dir,
// restart the node); now the tail loop detects it with a lineage
// handshake before mirroring anything, and — when the node was built
// with a manager factory (Config.NewManager) — resolves it by resetting
// the log, swapping in a fresh empty GraphManager, and re-tailing from
// sequence 1. POST /admin/reseed forces the same path by hand.

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"historygraph/internal/server"
)

// checkLineage reports whether the local WAL diverged from the primary's
// log: the primary's durable head is shorter than ours, or the record at
// our head differs from the primary's record at the same sequence. An
// empty local log is trivially a prefix.
func (n *Node) checkLineage(ctx context.Context, primary string) (bool, error) {
	last := n.log.LastSeq()
	if last == 0 {
		return false, nil
	}
	resp, err := n.fetchReplicate(ctx, fmt.Sprintf("%s/replicate?from=%d&max=1", primary, last))
	if err != nil {
		return false, fmt.Errorf("replica: lineage check: %w", err)
	}
	n.noteHead(resp.LastSeq)
	if resp.LastSeq < last {
		return true, nil // local log outgrew the primary: an unacked tail
	}
	if len(resp.Records) == 0 || resp.Records[0].Seq != last {
		return false, fmt.Errorf("replica: lineage check: primary head %d but no record at %d", resp.LastSeq, last)
	}
	local, err := n.log.Read(last, 1)
	if err != nil {
		return false, err
	}
	if len(local) == 0 {
		return false, fmt.Errorf("replica: lineage check: local record %d unreadable", last)
	}
	return local[0] != resp.Records[0], nil
}

// reseed discards the diverged local state — WAL and in-memory graph —
// and leaves the node empty, ready to re-mirror the primary from
// sequence 1. The caller is the tail loop (or the /admin/reseed handler
// with the tail stopped), so no mirrored records race the reset and no
// two re-seeds overlap. The swap itself runs as a ticket on the applier,
// behind everything already queued and under the admission lock, so
// nothing is admitting against or applying into the graph being replaced.
func (n *Node) reseed(primary string) error {
	if n.newManager == nil {
		return fmt.Errorf("replica: WAL diverged from primary %s and no manager factory is configured; wipe the WAL directory and restart the node", primary)
	}
	n.admitMu.Lock()
	defer n.admitMu.Unlock()
	return n.do(&ticket{swap: n.swapManager})
}

// swapManager is reseed's ticket: reset the log, swap in an empty manager,
// and rewind the cursor and everything derived from the old log.
func (n *Node) swapManager() error {
	gm, err := n.newManager()
	if err != nil {
		return fmt.Errorf("replica: re-seed: building fresh manager: %w", err)
	}
	if err := n.log.Reset(); err != nil {
		gm.Close()
		return fmt.Errorf("replica: re-seed: resetting WAL: %w", err)
	}
	old := n.srv.ReplaceManager(gm)
	n.appliedSeq.Store(0)
	n.admittedSeq.Store(0)
	n.admittedAt.Store(0)
	n.walSkipped.Store(0)
	n.dedupMu.Lock()
	n.batches = make(map[string]batchSpan)
	n.batchOrder = nil
	n.dedupMu.Unlock()
	n.reseedN.Add(1)
	n.reseeds.Inc()
	if old != nil {
		// In-flight reads captured the old manager and release through
		// it; let them drain before the backing store handle goes away.
		go func() {
			time.Sleep(2 * time.Second)
			old.Close()
		}()
	}
	return nil
}

// handleReseed answers POST /admin/reseed: an operator-forced
// truncate-and-resync. Follower role only — a primary's log is the
// authoritative one and must never be discarded by automation.
func (n *Node) handleReseed(w http.ResponseWriter, r *http.Request) {
	if n.Role() != RoleFollower {
		server.WriteError(w, http.StatusBadRequest,
			fmt.Errorf("replica: re-seed applies to followers only; point the node at a primary first"))
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		server.WriteError(w, http.StatusServiceUnavailable, errNodeClosed)
		return
	}
	n.stopTailLocked()
	primary := n.primaryURL
	err := n.reseed(primary)
	if err == nil {
		n.tailErr.Store("")
		n.headKnown.Store(false)
		n.primaryHead.Store(0)
	}
	n.startTailLocked()
	n.mu.Unlock()
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	n.handleStatus(w, r)
}
