package replica

// The write stage of the append path: admission (dedup, order check, WAL
// record write, ticket to the applier), the dedup table it keeps, and the
// follower-ack wait that ends an append. Every writer into the local log
// does the same four things — write records, register their batch span,
// raise the admitted marks, hand the applier a ticket — and then waits
// for the ticket's answer.

import (
	"fmt"
	"net/http"
	"time"

	"historygraph"
	"historygraph/internal/wire"
)

// confirm is the ack stage: wait until SyncFollowers followers have
// durably logged everything through seq (0: nothing to confirm).
func (n *Node) confirm(seq uint64, what string) error {
	if seq == 0 || n.syncFollowers == 0 {
		return nil
	}
	ackStart := time.Now()
	if !n.waitForAcks(seq, n.syncFollowers) {
		return fmt.Errorf("replica: %d follower(s) did not confirm seq %d within %v (the events are logged and will replicate; %s was NOT acked)",
			n.syncFollowers, seq, n.ackTimeout, what)
	}
	n.obsStage("ack", ackStart)
	return nil
}

// admitted is an admission's outcome: either a ticket with the applier
// (tk != nil) or a dedup/empty answer the caller can settle without one.
// acked is the sequence the follower-ack wait must cover (0 when nothing
// needs follower confirmation).
type admitted struct {
	tk      *ticket
	res     wire.AppendResult // answer when tk == nil
	resumed int
	acked   uint64
}

// admit is stage 1 of the pipeline: under the admission lock it checks the
// dedup table, validates event order against the admitted clock, writes
// the batch's WAL records (without waiting for the group sync), registers
// the dedup span, and hands the applier its ticket. The admission lock is
// held for none of the durability or apply work, so admissions overlap
// both — its hold time is the pipeline's serial section.
func (n *Node) admit(events historygraph.EventList, batch string) (admitted, int, error) {
	vStart := time.Now()
	n.admitMu.Lock()
	defer n.admitMu.Unlock()
	// Records can sit in the WAL that no writer here put there — a test or
	// tool wrote the log directly, or a mirrored prefix outlived a deposed
	// primary. Have the applier take them in before admitting against the
	// dedup table: that registers their batch spans and advances the graph
	// clock.
	if head := n.log.LastSeq(); head > n.admittedSeq.Load() {
		if err := n.catchUp(head); err != nil {
			return admitted{}, http.StatusInternalServerError, fmt.Errorf("replica: WAL backlog apply: %w", err)
		}
		n.raiseAdmitted(head, n.srv.Manager().LastTime())
	}
	resumed := 0
	if batch != "" {
		n.dedupMu.Lock()
		span, seen := n.batches[batch]
		n.dedupMu.Unlock()
		if seen && span.events >= len(events) {
			// The whole batch is already in the WAL — a coordinator
			// retrying after a failover or a lost response must not log
			// and apply it twice. Make sure it is applied (the original
			// may still be in flight, or its apply may have failed), then
			// ack it as the original append would have.
			if err := n.catchUp(span.lastSeq); err != nil {
				return admitted{}, http.StatusInternalServerError, err
			}
			return admitted{
				res: wire.AppendResult{
					Appended: span.events,
					LastTime: int64(n.srv.Manager().LastTime()),
					Seq:      span.lastSeq,
					Deduped:  true,
				},
				acked: span.lastSeq,
			}, http.StatusOK, nil
		}
		if seen {
			// The node holds only a prefix of the batch: a mid-batch
			// primary failure cut the replication stream short of the
			// last records. Retries resend the identical batch, so append
			// the remainder under the same ID, picking up exactly where
			// the mirrored records stop — a full re-append would
			// duplicate the prefix, a full dedup ack would silently drop
			// the suffix.
			resumed = span.events
			events = events[resumed:]
		}
	}
	// Reject what the graph would reject while the log is still clean: the
	// graph refuses events older than its clock (an ordinary 422), and
	// logging such a batch first would leave poison records that every
	// restart replay and every follower re-hits forever. The admitted
	// clock stands in for the graph clock, which trails it by whatever the
	// pipeline still holds.
	if err := validateOrder(historygraph.Time(n.admittedAt.Load()), events); err != nil {
		return admitted{}, http.StatusUnprocessableEntity, err
	}
	if len(events) == 0 {
		return admitted{res: wire.AppendResult{
			Appended: resumed,
			LastTime: int64(n.srv.Manager().LastTime()),
			Seq:      n.admittedSeq.Load(),
			Deduped:  resumed > 0,
		}}, http.StatusOK, nil
	}
	tk, err := n.writeLocked(events, batch, vStart)
	if err == errNodeClosed {
		return admitted{}, http.StatusServiceUnavailable, err
	} else if err != nil {
		return admitted{}, http.StatusInternalServerError, err
	}
	return admitted{tk: tk, resumed: resumed, acked: tk.last}, http.StatusOK, nil
}

// writeLocked is what every admission ends with (the caller holds admitMu
// and has validated the events' order): write the WAL records without
// waiting for their sync, register the batch span, raise the admitted
// marks, and hand the applier a ticket carrying the events as its hint.
// The span is registered before the records are even durable: a retry
// racing the pipeline must dedup against the in-flight original, not
// append the batch a second time behind it.
func (n *Node) writeLocked(events historygraph.EventList, batch string, vStart time.Time) (*ticket, error) {
	first, last, err := n.log.StartAppend(events, batch)
	if err != nil {
		return nil, fmt.Errorf("replica: WAL append: %w", err)
	}
	n.recordBatch(batch, len(events), last)
	n.raiseAdmitted(last, events[len(events)-1].At)
	n.obsStage("validate", vStart)
	tk := &ticket{first: first, last: last, hint: events, start: vStart}
	return tk, n.submit(tk)
}

// settle waits for an admission's apply outcome and assembles the final
// AppendResult (follower acks are the caller's, so a dedup ack and a live
// append share one ack path).
func (n *Node) settle(ad admitted) (wire.AppendResult, error) {
	if ad.tk == nil {
		return ad.res, nil
	}
	d := n.await(ad.tk)
	if d.err != nil {
		// Ordering was validated before the WAL write, so this is an
		// internal failure (index store I/O), not a client error; the
		// batch is durably logged and the applier takes the unapplied
		// tail from the log on the next ticket or restart.
		return wire.AppendResult{}, d.err
	}
	res := d.res
	res.Seq = ad.tk.last
	res.Appended += ad.resumed
	res.Deduped = ad.resumed > 0
	return res, nil
}

// raiseAdmitted advances the admitted end of the WAL (monotonic).
func (n *Node) raiseAdmitted(seq uint64, at historygraph.Time) {
	for {
		cur := n.admittedSeq.Load()
		if seq <= cur || n.admittedSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	for {
		cur := n.admittedAt.Load()
		if int64(at) <= cur || n.admittedAt.CompareAndSwap(cur, int64(at)) {
			break
		}
	}
}

// validateOrder rejects a batch the graph would refuse: events must be
// time-ordered within the batch and none may predate clock (the index
// only ever moves forward). It mirrors the deltagraph append check so a
// rejection happens before anything reaches the WAL.
func validateOrder(clock historygraph.Time, events historygraph.EventList) error {
	for _, ev := range events {
		if ev.At < clock {
			return fmt.Errorf("replica: event at %d is older than last event at %d", ev.At, clock)
		}
		clock = ev.At
	}
	return nil
}

// obsStage records one pipeline stage's wall time.
func (n *Node) obsStage(stage string, start time.Time) {
	if n.stageDur != nil {
		n.stageDur.With(stage).Observe(time.Since(start).Seconds())
	}
}

// batchSpan is one dedup-table entry: how many WAL records carry the batch
// ID and the highest sequence number among them.
type batchSpan struct {
	events  int
	lastSeq uint64
}

// maxBatchIDs bounds the dedup table. IDs are forgotten oldest-first, long
// after any coordinator retry of the batch could still be in flight.
const maxBatchIDs = 4096

// recordBatch extends the dedup table with events more records of batch,
// the highest at lastSeq. Records at or below a known span's lastSeq are
// already counted (the applier can read back records a writer already
// registered) and are skipped.
func (n *Node) recordBatch(batch string, events int, lastSeq uint64) {
	if batch == "" {
		return
	}
	n.dedupMu.Lock()
	defer n.dedupMu.Unlock()
	span, known := n.batches[batch]
	if known && lastSeq <= span.lastSeq {
		return
	}
	if !known {
		if len(n.batchOrder) >= maxBatchIDs {
			delete(n.batches, n.batchOrder[0])
			n.batchOrder = n.batchOrder[1:]
		}
		n.batchOrder = append(n.batchOrder, batch)
	}
	span.events += events
	if lastSeq > span.lastSeq {
		span.lastSeq = lastSeq
	}
	n.batches[batch] = span
}

// recordAck notes that follower id has durably logged every record up to
// seq.
func (n *Node) recordAck(id string, seq uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.acks[id] >= seq {
		return
	}
	n.acks[id] = seq
	close(n.ackNotify)
	n.ackNotify = make(chan struct{})
}

// waitForAcks blocks until count followers have acked seq or AckTimeout
// elapses.
func (n *Node) waitForAcks(seq uint64, count int) bool {
	deadline := time.NewTimer(n.ackTimeout)
	defer deadline.Stop()
	for {
		n.mu.Lock()
		got := 0
		for _, a := range n.acks {
			if a >= seq {
				got++
			}
		}
		ch := n.ackNotify
		n.mu.Unlock()
		if got >= count {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return false
		}
	}
}
