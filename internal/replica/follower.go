package replica

// The follower role: tail the primary's log over GET /replicate and mirror
// it — into the local WAL first, then, through the applier, into the graph.
// reseed.go beside it holds the lineage handshake and the
// truncate-and-resync a diverged log ends in.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"historygraph"
	"historygraph/internal/wire"
)

func (n *Node) startTailLocked() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	n.tailCancel = cancel
	n.tailDone = done
	primary := n.primaryURL
	go n.tailLoop(ctx, primary, done)
}

func (n *Node) stopTailLocked() {
	if n.tailCancel != nil {
		n.tailCancel()
		<-n.tailDone
		n.tailCancel = nil
		n.tailDone = nil
	}
}

// tailLoop fetches records from the primary and mirrors them in order:
// local WAL first (synced), then the in-memory graph — the same
// durability order the primary itself uses, so a follower crash replays
// its own log and re-fetches only what it never stored.
func (n *Node) tailLoop(ctx context.Context, primary string, done chan struct{}) {
	defer close(done)
	// failed surfaces a failed step in /replstatus and paces the retry; it
	// reports false when the loop was cancelled instead.
	failed := func(err error) bool {
		if ctx.Err() != nil {
			return false
		}
		n.tailErr.Store(err.Error())
		n.tailFails.Inc()
		select {
		case <-time.After(DefaultRetryDelay):
			return true
		case <-ctx.Done():
			return false
		}
	}
	// Lineage handshake: before mirroring anything, verify the local log
	// is a prefix of the primary's. A deposed primary rejoining as a
	// follower can hold an unacked tail the new primary never had — with a
	// plain fetch from LastSeq+1 that divergence is silent (the primary's
	// head is simply shorter, the loop idles "caught up" with conflicting
	// history). Detected divergence triggers the automated
	// truncate-and-resync when a manager factory is configured.
	for ctx.Err() == nil {
		diverged, err := n.checkLineage(ctx, primary)
		if err == nil && diverged {
			if err = n.reseed(primary); err == nil {
				n.tailErr.Store("")
			}
		}
		if err == nil {
			break
		}
		if !failed(err) {
			return
		}
	}
	for ctx.Err() == nil {
		// Logged-but-unapplied records come first: fetch resumes from the
		// log's end, so anything a failed or interrupted apply left behind
		// must catch up from the local log, not the network. A sequence
		// gap or apply failure while mirroring means the logs diverged
		// (e.g. this node outlived a deposed primary's unacked tail); it
		// stays in /replstatus while the loop retries, until the operator
		// re-seeds the WAL dir.
		err := n.catchUp(n.log.LastSeq())
		if err == nil {
			var recs []Record
			if recs, err = n.fetch(ctx, primary); err == nil {
				n.tailErr.Store("")
				err = n.mirror(recs)
			}
		}
		if err != nil && !failed(err) {
			return
		}
	}
}

// fetch long-polls the primary for records past the local log end.
func (n *Node) fetch(ctx context.Context, primary string) ([]Record, error) {
	from := n.log.LastSeq() + 1
	body, err := n.fetchReplicate(ctx, fmt.Sprintf("%s/replicate?from=%d&max=%d&wait=%s&id=%s",
		primary, from, n.fetchMax, n.pollWait, n.selfID))
	if err != nil {
		return nil, err
	}
	n.noteHead(body.LastSeq)
	return body.Records, nil
}

// fetchReplicate runs one GET against a /replicate URL and decodes the
// response. It asks for binary, and takes nothing else: a JSON page (the
// answer to a plain curl) is refused by its Content-Type. The tail loop,
// the lineage handshake, and the migration puller all fetch through it.
func (n *Node) fetchReplicate(ctx context.Context, url string) (replicateResponse, error) {
	reqCtx, cancel := context.WithTimeout(ctx, n.pollWait+10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, url, nil)
	if err != nil {
		return replicateResponse{}, err
	}
	req.Header.Set("Accept", wire.ContentTypeBinary)
	resp, err := n.hc.Do(req)
	if err != nil {
		return replicateResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return replicateResponse{}, fmt.Errorf("replica: primary answered HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); wire.ForContentType(ct).Name() != wire.NameBinary {
		return replicateResponse{}, fmt.Errorf("replica: primary answered /replicate as %q, want %s", ct, wire.ContentTypeBinary)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return replicateResponse{}, err
	}
	return decodeReplicate(raw)
}

// noteHead records the primary's durable log end from a fetch response;
// /readyz compares it against the local applied position.
func (n *Node) noteHead(head uint64) {
	n.primaryHead.Store(head)
	n.headKnown.Store(true)
}

// mirror is the follower's writer: fetched records go into the local WAL
// (synced — durable here before they are applied), their dedup spans and
// the admitted marks are registered, and the applier gets a ticket with
// the fetched events as its hint. Registering before the apply matters: a
// promotion that lands between the two steps still sees the records, so
// the first post-promotion retry of a half-replicated batch dedups and
// resumes instead of re-appending.
func (n *Node) mirror(recs []Record) error {
	if len(recs) == 0 {
		return nil // long-poll expired with nothing new
	}
	if err := n.log.AppendRecords(recs); err != nil {
		return err
	}
	events := make(historygraph.EventList, len(recs))
	for i, rec := range recs {
		n.raiseAdmitted(rec.Seq, rec.Event.At)
		n.recordBatch(rec.Batch, 1, rec.Seq)
		events[i] = rec.Event
	}
	return n.do(&ticket{first: recs[0].Seq, last: recs[len(recs)-1].Seq, hint: events})
}
