package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

var workloads = []*workload{
	{
		name: "retrieve-embedded",
		why:  "library calls on a FileStore index at uniform random times: all time is in deltagraph, delta, kvstore and graphpool; server, wire, shard and replica are bypassed",
		launch: func(r *runner, dir string) (*deployment, error) {
			r.loaded = r.ds.events
			return launchEmbedded(r.ds, dir, r.tr)
		},
		warmup: func(r *runner) error {
			r.execAll(embeddedOps(opRNG(r.cfg.seed), r.ds, r.mix(embeddedMix).scaled(4)), nil)
			// The stated set of views the heap is measured with.
			for _, t := range spreadTimes(r.ds.first, r.ds.last, pinnedViews, 0.05, 1.0) {
				h, err := r.dep.gm.GetHistGraph(t, attrsNone)
				if err != nil {
					return err
				}
				if err := r.dep.gm.Pin(h); err != nil {
					return err
				}
				r.pinned = append(r.pinned, h)
			}
			return nil
		},
		round: func(r *runner, rec *roundRec) error {
			r.execAll(embeddedOps(opRNG(r.cfg.seed), r.ds, r.mix(embeddedMix)), rec)
			return nil
		},
	},
	{
		name: "serve-hot",
		why:  "one server over loopback HTTP, 24 Zipf-drawn hot times that fit both caches: every timed read is a cache hit, so all time is in server caches, wire and HTTP and none in the index",
		launch: func(r *runner, dir string) (*deployment, error) {
			r.loaded = r.ds.events
			return launchServer(r.ds, dir, r.tr)
		},
		warmup: func(r *runner) error {
			r.execAll(hotWarmup(r.ds), nil)
			r.execAll(hotOps(opRNG(r.cfg.seed), r.ds, r.mix(hotMix).scaled(10)), nil)
			return nil
		},
		round: func(r *runner, rec *roundRec) error {
			before := r.planExecutions()
			r.execAll(hotOps(opRNG(r.cfg.seed), r.ds, r.mix(hotMix)), rec)
			if moved := r.planExecutions() - before; moved != 0 {
				r.attempted++
				r.fail(fmt.Errorf("serve-hot executed %d query plans in a timed round; every timed read must be a cache hit", moved))
			}
			return nil
		},
		workingSet: hotSet,
	},
	{
		name: "serve-mixed",
		why:  "2x1 WAL-backed cluster under a coordinator: an append batch, then 10 reads over 512 times (16x the cache), so misses, invalidation, apply under the index lock and scatter/merge all run together",
		launch: func(r *runner, dir string) (*deployment, error) {
			r.loaded = r.ds.events
			return launchCluster(r.ds, dir, r.tr)
		},
		// Round 0 reads only, at a stated list of times, the last of which
		// are what the caches hold when the heap is measured. It appends
		// nothing, so that the index measured is the bulk-built one on every
		// seed, never one that happened to flush a leaf.
		warmup: func(r *runner) error {
			for i, t := range spreadTimes(r.ds.first, r.ds.last, mixedWarmReads, 0.05, 1.0) {
				r.exec(op{kind: opSnapshot, t: t}, nil)
				if i%8 == 0 {
					r.exec(op{kind: opNeighbors, t: t, node: 1}, nil)
					r.exec(op{kind: opSnapshotAttrs, t: t}, nil)
					r.exec(op{kind: opMultipoint, ts: leafRun(float64(i)/mixedWarmReads, r.ds, r.ds.first, r.ds.last)}, nil)
				}
			}
			return nil
		},
		round: func(r *runner, rec *roundRec) error {
			r.execAll(mixedOps(opRNG(r.cfg.seed), r.ds, r.cycles(mixedCycles), r.heads), rec)
			return nil
		},
	},
	{
		name: "ingest-restart",
		why:  "bulk BuildFrom in set-up; each round an empty WAL-backed node takes the whole trace live (POST batches, streams) and restarts from its WAL alone: builder, append stages and persistence do the work",
		launch: func(r *runner, dir string) (*deployment, error) {
			// The bulk use of the builder; the live use is every round.
			gm, built, err := bulkBuild(r.ds.events, filepath.Join(dir, "bulk.index"))
			if err != nil {
				return nil, err
			}
			if err := gm.Close(); err != nil {
				return nil, err
			}
			d, err := launchNode(dir, r.tr)
			if err != nil {
				return nil, err
			}
			r.loaded = nil
			d.built, d.builtEvents = built, len(r.ds.events)
			return d, nil
		},
		// Round 0 is a whole round, so that the node measured at the fixed
		// point holds what a round leaves behind.
		warmup: func(r *runner) error {
			return r.ingest(nil)
		},
		round: func(r *runner, rec *roundRec) error {
			// A fresh empty node per round, so every round is the same work.
			r.teardown()
			dir := filepath.Join(r.dir, "round")
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			d, err := launchNode(dir, r.tr)
			if err != nil {
				return err
			}
			r.dep, r.acked, r.heads = d, nil, 0
			return r.ingest(rec)
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mix and cycles shrink a round tenfold under -smoke.
func (r *runner) mix(m mix) mix {
	if r.cfg.smoke {
		return m.scaled(10)
	}
	return m
}

func (r *runner) cycles(n int) int {
	if r.cfg.smoke {
		return n/10 + 1
	}
	return n
}

// planExecutions sums deltagraph's plan counter over the deployment.
func (r *runner) planExecutions() int64 {
	var n int64
	for _, gm := range r.dep.managers() {
		n += gm.IndexStats().PlanExecutions
	}
	return n
}

// ingest appends the first sizes.ingest events of the trace to the empty
// node in ingestSlices slices — even
// slices as POST /append batches, each timed send to ack; odd slices through
// one Client.AppendStream each — then stops the node without a checkpoint,
// reopens it from its WAL alone, and checks that the head graph holds every
// acked event.
func (r *runner) ingest(rec *roundRec) error {
	n := r.sz.ingest
	if n > len(r.ds.events) || n%(ingestSlices*appendBatchSize) != 0 {
		return fmt.Errorf("cannot ingest %d of %d events in %d slices of whole batches", n, len(r.ds.events), ingestSlices)
	}
	prefix := r.ds.events[:n]
	per := n / ingestSlices
	client := r.dep.door.(*httpDoor).c
	for s := 0; s < ingestSlices; s++ {
		part := prefix[s*per : (s+1)*per]
		if s%2 == 0 {
			for lo := 0; lo < len(part); lo += appendBatchSize {
				if !r.exec(op{kind: opAppend, events: part[lo : lo+appendBatchSize]}, rec) {
					return fmt.Errorf("ingest stopped at a failed batch")
				}
			}
			continue
		}
		// The stream's HTTP exchange runs on a helper goroutine; one span
		// covers the slice and nothing is recorded inside it.
		id := r.tr.begin("op.append_stream")
		r.tr.enable(false)
		t0 := time.Now()
		err := func() error {
			st, err := client.AppendStream()
			if err != nil {
				return err
			}
			for lo := 0; lo < len(part); lo += appendBatchSize {
				if err := st.Send(part[lo : lo+appendBatchSize]); err != nil {
					st.Close()
					return err
				}
			}
			res, err := st.Close()
			if err == nil && res.Appended != len(part) {
				err = fmt.Errorf("stream landed %d of %d events", res.Appended, len(part))
			}
			return err
		}()
		d := time.Since(t0)
		r.tr.enable(rec != nil && rec.traced)
		r.tr.end(id)
		r.attempted++
		if err != nil {
			r.fail(err)
			return fmt.Errorf("ingest stopped at a failed stream: %w", err)
		}
		r.acked = append(r.acked, part...)
		if rec != nil {
			rec.appendEvents += len(part)
			rec.appendWall += d
		}
	}

	r.dep.indexed = prefix
	r.lp.harvest(r.dep)
	events, d, err := r.dep.restart()
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if rec != nil {
		rec.restartEvents, rec.restartWall = events, d
	}
	// Durability: the restarted node's head graph is the replay of every
	// acked event.
	_, head := prefix.Span()
	r.attempted++
	got, err := r.dep.door.snapshot(head, attrsNone)
	if err != nil {
		r.fail(fmt.Errorf("head read after restart: %w", err))
	} else if o, err := newOracle(prefix); err != nil {
		r.fail(err)
	} else {
		if err := o.check(got, head, attrsNone); err != nil {
			r.fail(fmt.Errorf("after restart: %w", err))
		}
		r.leaks += o.leaks
	}
	return nil
}
