package main

import (
	"math/rand"

	"historygraph/internal/graph"
)

// Every size below is a constant: nothing is calibrated at run time, so a
// run is the same work on every host and every commit. They are sized for a
// 2-core box and the driver's budget of about half a minute per run, set-ups
// included: ISSUE 12's trace of 400k events takes BuildFrom 26 s to index
// once, so the trace is a fifth of that and the reads, five times cheaper
// each, come more to a round.

type sizes struct {
	authors, edges, churn int // Coauthorship nodes and edges; Churn adds = dels
	ingest                int // events ingest-restart appends live: a prefix of the trace
}

var (
	// fullSizes gives 78.8k to 80k events, by the seed: 4000 authors with
	// 10 attributes each, 16000 co-author edges, then 10000 edge adds and
	// 10000 deletes. ingest-restart appends the first 59392 of them, 14½
	// leaf-eventlists whatever the seed: the size of an index jumps when a
	// leaf is flushed and its parents are built, and a count that moved
	// with the seed would put some seeds on the other side of a jump. (More
	// does not fit: replay slows down as the log grows, 170k events/s at
	// 32k events and 66k at 76k, and every round and every set-up replays.)
	fullSizes = sizes{authors: 4000, edges: 16000, churn: 10000, ingest: 59392}
	// smokeSizes is the 1/20 dataset behind -smoke.
	smokeSizes = sizes{authors: 200, edges: 800, churn: 500, ingest: 2048}
)

const (
	traceYears        = 20
	traceAttrsPerNode = 10

	timedRounds  = 7 // rounds of a run at --seconds runSeconds; round 0, the warm-up, is untimed
	setupRepeats = 5 // set-ups per run; setup_s is their median

	appendBatchSize   = 256 // events per live append batch
	multipointWidth   = 8   // timepoints per multipoint retrieval
	clusterPartitions = 2   // serve-mixed is 2 partitions × 1 member
	pinnedViews       = 32  // GetHistGraph views the embedded workload holds for heap_live_mb
	verifySamples     = 32  // timepoints re-read against the oracle, head included

	hotTimepoints  = 24  // serve-hot working set: fits the view cache (32) and the encoded cache (64)
	hotZipfS       = 1.1 // skew of the draw over the hot set
	mixedTimes     = 512 // serve-mixed historical working set: 16× the view cache
	mixedCycles    = 15  // serve-mixed cycles per round
	mixedWarmReads = 32  // serve-mixed round 0: as many snapshot reads as the view cache holds
	ingestSlices   = 8   // slices of one live ingest, alternately POST batches and one stream
)

type opKind uint8

const (
	opSnapshot opKind = iota
	opSnapshotAttrs
	opMultipoint
	opNeighbors
	opAppend
	numOpKinds
)

var opNames = [numOpKinds]string{"snapshot", "snapshot_attrs", "multipoint", "neighbors", "append"}

func (k opKind) isRead() bool { return k != opAppend }

// op is one request of the closed-loop client.
type op struct {
	kind   opKind
	t      graph.Time      // snapshot, neighbors
	ts     []graph.Time    // multipoint
	node   graph.NodeID    // neighbors
	events graph.EventList // append; nil means the next head batch
}

// mix is how many ops of each class one round holds. Over timedRounds
// rounds every class has at least 400 samples behind a p90 and 100 behind a
// p50.
type mix [numOpKinds]int

var (
	// ISSUE 12's 60/30/15 half as much again: 630, 315 and 168 samples a run.
	embeddedMix = mix{opSnapshot: 90, opSnapshotAttrs: 45, opMultipoint: 24}
	// ISSUE 12's 1000/1000/300 three times over: a hit costs a fifth of a
	// millisecond.
	hotMix = mix{opSnapshot: 3000, opMultipoint: 900, opNeighbors: 3000}
	// mixedCycle is one serve-mixed cycle: an append batch, then ten reads.
	// mixedCycles of them make a round: 420 snapshots, 105 with attributes,
	// 420 neighbour reads, 105 multipoints and 105 appends a run. (ISSUE 12
	// had 30 cycles of twelve reads, two with attributes and two multipoint;
	// those two classes cost 25 to 40 ms a read through the coordinator, and
	// this is what fits the run with every sample minimum still met.)
	mixedCycle = []opKind{
		opAppend,
		opSnapshot, opNeighbors, opSnapshot, opNeighbors, opSnapshotAttrs,
		opSnapshot, opNeighbors, opSnapshot, opNeighbors, opMultipoint,
	}
)

// scaled shrinks a mix tenfold-or-so for the warm-up round and for -smoke.
func (m mix) scaled(div int) mix {
	for k := range m {
		if m[k] > 0 {
			m[k] = (m[k] + div - 1) / div
		}
	}
	return m
}

// opRNG seeds the generator of a workload's op list. Every timed round runs
// the same list, so two rounds differ by what the host did to them and by
// nothing else.
func opRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + 17))
}

// stratified draws n values from [0,1), one from each of n equal strata,
// in random order. The reads cover the whole time range evenly whatever
// the seed: retrieval cost grows with the graph, so plain uniform draws
// would make two seeds differ by where their times happened to fall, not
// by how fast the program was.
func stratified(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (float64(i) + rng.Float64()) / float64(n)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func timeAt(f float64, lo, hi graph.Time) graph.Time {
	return lo + graph.Time(f*float64(hi-lo))
}

// pickNode draws from the oldest quarter of the nodes: they exist at most
// timepoints and, under preferential attachment, carry most of the edges.
func pickNode(rng *rand.Rand, ds *dataset) graph.NodeID {
	return graph.NodeID(1 + rng.Intn(ds.nodes/4+1))
}

// leafRun returns multipointWidth times one leaf-width apart inside
// [lo,hi], starting fraction f of the way through.
func leafRun(f float64, ds *dataset, lo, hi graph.Time) []graph.Time {
	step := ds.leafDT
	if span := (hi - lo) / multipointWidth; step > span {
		step = span
	}
	start := timeAt(f, lo, hi-step*(multipointWidth-1))
	ts := make([]graph.Time, multipointWidth)
	for i := range ts {
		ts[i] = start + step*graph.Time(i)
	}
	return ts
}

// embeddedOps lays a mix out class after class (A… B… C…, so that rounds
// interleave the classes), each class's reads at stratified random times
// over the whole history.
func embeddedOps(rng *rand.Rand, ds *dataset, m mix) []op {
	var ops []op
	for k := opKind(0); k < numOpKinds; k++ {
		for _, f := range stratified(rng, m[k]) {
			o := op{kind: k}
			switch k {
			case opSnapshot, opSnapshotAttrs:
				o.t = timeAt(f, ds.first, ds.last)
			case opMultipoint:
				o.ts = leafRun(f, ds, ds.first, ds.last)
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// spreadTimes returns n timepoints evenly spaced (at the midpoints of n
// equal slices) over the part of [first,last] between fractions lo and hi
// of its span.
func spreadTimes(first, last graph.Time, n int, lo, hi float64) []graph.Time {
	ts := make([]graph.Time, n)
	for i := range ts {
		ts[i] = timeAt(lo+(hi-lo)*(float64(i)+0.5)/float64(n), first, last)
	}
	return ts
}

// hotSet is serve-hot's working set.
func hotSet(ds *dataset) []graph.Time {
	return spreadTimes(ds.first, ds.last, hotTimepoints, 0.15, 0.75)
}

// hotRun is the multipoint request that starts at hot time j: that one and
// the multipointWidth-1 after it, wrapping around.
func hotRun(hot []graph.Time, j int) []graph.Time {
	ts := make([]graph.Time, multipointWidth)
	for w := range ts {
		ts[w] = hot[(j+w)%len(hot)]
	}
	return ts
}

// hotOps draws every read from the hot set with Zipf skew.
func hotOps(rng *rand.Rand, ds *dataset, m mix) []op {
	hot := hotSet(ds)
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(hot)-1))
	var ops []op
	for k := opKind(0); k < numOpKinds; k++ {
		for i := 0; i < m[k]; i++ {
			o := op{kind: k}
			j := int(zipf.Uint64())
			switch k {
			case opSnapshot:
				o.t = hot[j]
			case opMultipoint:
				o.ts = hotRun(hot, j)
			case opNeighbors:
				o.t, o.node = hot[j], pickNode(rng, ds)
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// hotWarmup touches every hot key once in every class, so that after the
// warm-up round no timed read can miss.
func hotWarmup(ds *dataset) []op {
	hot := hotSet(ds)
	var ops []op
	for j, t := range hot {
		ops = append(ops,
			op{kind: opSnapshot, t: t},
			op{kind: opNeighbors, t: t, node: 1},
			op{kind: opMultipoint, ts: hotRun(hot, j)})
	}
	return ops
}

// mixedOps repeats the serve-mixed cycle. Historical reads draw (stratified
// per class) from mixedTimes distinct times, 16× what the view cache holds,
// so most miss; each multipoint asks four of those and the four newest head
// times, which the cycle's own append has just made stale. head is the
// number of batches appended before this list runs.
func mixedOps(rng *rand.Rand, ds *dataset, cycles, head int) []op {
	times := spreadTimes(ds.first, ds.last, mixedTimes, 0.05, 1.0)
	var perCycle mix
	for _, k := range mixedCycle {
		perCycle[k]++
	}
	perCycle[opMultipoint] *= multipointWidth / 2 // historical times per cycle
	var draws [numOpKinds][]float64
	for k := range draws {
		draws[k] = stratified(rng, perCycle[k]*cycles)
	}
	pick := func(k opKind) graph.Time {
		f := draws[k][0]
		draws[k] = draws[k][1:]
		return times[int(f*float64(len(times)))]
	}
	var ops []op
	for c := 0; c < cycles; c++ {
		for _, k := range mixedCycle {
			o := op{kind: k}
			switch k {
			case opAppend:
				head++
			case opSnapshot, opSnapshotAttrs:
				o.t = pick(k)
			case opNeighbors:
				o.t, o.node = pick(k), pickNode(rng, ds)
			case opMultipoint:
				o.ts = make([]graph.Time, 0, multipointWidth)
				for w := 0; w < multipointWidth/2; w++ {
					o.ts = append(o.ts, pick(k))
				}
				for w := 0; w < multipointWidth/2; w++ {
					// Batch i is stamped last+1+i; never ask past the head.
					o.ts = append(o.ts, max(ds.first, ds.last+graph.Time(head-w)))
				}
			}
			ops = append(ops, o)
		}
	}
	return ops
}
