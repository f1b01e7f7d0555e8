package replica

// The applier: the one path from the log to the graph. The local WAL is
// the queue — every writer (live append, stream frame, migration ingest,
// follower mirror) first puts its records in the log and then hands the
// applier a ticket naming them — and the applier owns the cursor,
// appliedSeq: the last record the graph has absorbed or deliberately
// skipped. Nothing else calls Server.ApplyEvents or moves the cursor.

import (
	"errors"
	"fmt"
	"time"

	"historygraph"
	"historygraph/internal/wire"
)

// ticket asks the applier to advance the cursor through WAL sequence last.
// A writer that still holds the decoded events of records first..last
// passes them as the hint, and the applier uses it when those records are
// exactly the next ones — the steady state, with no read-back and no
// decode. A ticket without a hint (boot replay, the tail loop's backlog
// catch-up, an admission that found records it never wrote) is served
// from the log itself, and so is one whose hint does not begin at
// cursor+1: a failed apply left a hole before it, or a re-fetch overlaps
// what is already applied.
type ticket struct {
	first, last uint64
	hint        historygraph.EventList
	start       time.Time      // when the writer began, if it timed its validate stage
	swap        func() error   // reseed's manager swap, run in queue order in place of an advance
	done        chan applyDone // buffered 1; the applier always answers
}

// applyDone is the applier's answer to one ticket.
type applyDone struct {
	res wire.AppendResult
	err error
}

// errNodeClosed fails tickets caught by Close.
var errNodeClosed = errors.New("replica: node closed")

// submit queues a ticket. Blocking here while the queue is full is the
// admission backpressure; inflight counts tickets queued or being applied.
func (n *Node) submit(tk *ticket) error {
	tk.done = make(chan applyDone, 1)
	n.inflight.Add(1)
	select {
	case n.queue <- tk:
		return nil
	case <-n.quit:
		n.inflight.Add(-1)
		return errNodeClosed
	}
}

// await blocks for a ticket's answer. The applier always answers what it
// dequeues, but a ticket queued in the same instant Close's drain finishes
// would otherwise wait forever — applierDone breaks the race.
func (n *Node) await(tk *ticket) applyDone {
	select {
	case d := <-tk.done:
		return d
	case <-n.applierDone:
		select {
		case d := <-tk.done:
			return d
		default:
			return applyDone{err: errNodeClosed}
		}
	}
}

// catchUp has the applier bring the graph up to WAL sequence through from
// the log alone, behind everything already queued, and waits for it.
func (n *Node) catchUp(through uint64) error {
	if n.appliedSeq.Load() >= through {
		return nil
	}
	return n.do(&ticket{last: through})
}

// do queues a ticket and waits for its answer.
func (n *Node) do(tk *ticket) error {
	if err := n.submit(tk); err != nil {
		return err
	}
	return n.await(tk).err
}

// applier is the single apply goroutine: it takes tickets in queue order
// (== WAL sequence order, because writers queue under the lock they write
// under), so sequence order == apply order while admissions and durability
// waits overlap freely. It exits on Close, failing whatever is still
// queued.
func (n *Node) applier() {
	defer close(n.applierDone)
	for {
		select {
		case tk := <-n.queue:
			tk.done <- n.process(tk)
			n.inflight.Add(-1)
		case <-n.quit:
			for {
				select {
				case tk := <-n.queue:
					tk.done <- applyDone{err: errNodeClosed}
					n.inflight.Add(-1)
				default:
					return
				}
			}
		}
	}
}

// process serves one ticket: wait until its records are durable (many
// tickets share one group commit), then advance the cursor through them.
func (n *Node) process(tk *ticket) applyDone {
	if tk.swap != nil {
		return applyDone{err: tk.swap()}
	}
	logStart := time.Now()
	if err := n.log.WaitDurable(tk.last); err != nil {
		return applyDone{err: fmt.Errorf("replica: WAL append: %w", err)}
	}
	if !tk.start.IsZero() {
		n.log.ObserveAppend(tk.start)
	}
	n.obsStage("log", logStart)
	applyStart := time.Now()
	res, err := n.advance(tk)
	n.obsStage("apply", applyStart)
	return applyDone{res: res, err: err}
}

// advance moves the cursor to tk.last, from the hint when it begins
// exactly at cursor+1 and from the log otherwise — the only fork on the
// way to the graph, decided by what the applier can see. It never reads
// past tk.last, so a failure further down the log belongs to that
// record's own ticket.
func (n *Node) advance(tk *ticket) (wire.AppendResult, error) {
	res := wire.AppendResult{Appended: len(tk.hint)}
	for cursor := n.appliedSeq.Load(); cursor < tk.last; cursor = n.appliedSeq.Load() {
		events, recs := tk.hint, []Record(nil)
		if events == nil || tk.first != cursor+1 {
			var err error
			if recs, err = n.log.Read(cursor+1, int(min(uint64(n.fetchMax), tk.last-cursor))); err != nil {
				return res, err
			}
			if len(recs) == 0 {
				return res, fmt.Errorf("replica: WAL ends at seq %d, before %d", cursor, tk.last)
			}
			n.readBack.Add(uint64(len(recs)))
			events = make(historygraph.EventList, len(recs))
			for i, rec := range recs {
				events[i] = rec.Event
			}
		}
		invalidated, err := n.applyRun(cursor, events, recs)
		res.Invalidated += invalidated
		if err != nil {
			return res, err
		}
	}
	res.LastTime = int64(n.srv.Manager().LastTime())
	return res, nil
}

// applyRun applies the records right after cursor — events[i] is record
// cursor+1+i — and settles the cursor, wal_skipped and the dedup table at
// exactly the last record the graph absorbed or was spared. recs is set
// when the run was read back from the log: no writer has registered those
// records' batch IDs yet.
//
// Two kinds of record never reach the graph. Those the checkpoint the
// graph was loaded from already holds (boot replay tops a checkpoint up,
// it must not double-apply it). And poison: events older than the index
// clock, which the graph rejects. Admission refuses such a batch before
// logging it, so poison only exists in WALs written before that guard or
// mirrored from one, and recovery degrades like the live path did — skip
// the event, count it, keep serving.
//
// ApplyEvents reports the exact applied count even on failure, so a
// partial apply stops the cursor at the failing event: never past a hole
// (which would mislead most-caught-up promotion and in-sync routing) and
// never behind a landed event (equal timestamps make re-applying unsafe).
func (n *Node) applyRun(cursor uint64, events historygraph.EventList, recs []Record) (invalidated int, err error) {
	covered := func(ev historygraph.Event) bool { return n.floor > 0 && ev.At <= n.floor }
	clock := n.srv.Manager().LastTime()
	skipped, i := uint64(0), 0
	for i < len(events) && err == nil {
		// The longest stretch the graph takes as it stands.
		j := i
		for j < len(events) && events[j].At >= clock && !covered(events[j]) {
			clock = events[j].At
			j++
		}
		if j == i {
			if !covered(events[i]) {
				skipped++
			}
			i++
			continue
		}
		var res wire.AppendResult
		res, err = n.srv.ApplyEvents(events[i:j])
		i += res.Appended
		invalidated += res.Invalidated
	}
	for _, rec := range recs[:min(i, len(recs))] {
		n.recordBatch(rec.Batch, 1, rec.Seq)
	}
	n.walSkipped.Add(skipped)
	n.appliedSeq.Store(cursor + uint64(i))
	return invalidated, err
}
