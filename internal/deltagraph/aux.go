package deltagraph

import (
	"fmt"
	"sort"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/kvstore"
)

// Extensibility (Section 4.7): auxiliary information — arbitrary key-value
// snapshots derived from the graph — is indexed alongside the graph itself.
// Each registered AuxIndex contributes one extra column to every delta and
// leaf-eventlist; retrieval of the auxiliary snapshot as of any time point
// follows exactly the same plan machinery as graph snapshots.

// AuxSnapshot is the paper's AuxiliarySnapshot: a hashtable of string
// key-value pairs.
type AuxSnapshot map[string]string

func (a AuxSnapshot) clone() AuxSnapshot {
	c := make(AuxSnapshot, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// AuxOp is the kind of an AuxEvent.
type AuxOp uint8

// Aux event operations.
const (
	AuxSet AuxOp = iota + 1 // add or change a key-value pair
	AuxDel                  // remove a key
)

// AuxEvent is the paper's AuxiliaryEvent: a timestamped change to one
// key-value pair.
type AuxEvent struct {
	At  graph.Time
	Op  AuxOp
	Key string
	Val string
}

// apply plays the event onto the snapshot.
func (a AuxSnapshot) apply(ev AuxEvent) {
	switch ev.Op {
	case AuxSet:
		a[ev.Key] = ev.Val
	case AuxDel:
		delete(a, ev.Key)
	}
}

// AuxIndex is the user-implemented interface (the paper's AuxIndex
// abstract class). CreateAuxEvents derives the auxiliary events caused by
// one plain event, given the graph before the event — the current graph's
// handle in the GraphPool, valid for the length of the call — and the latest
// auxiliary snapshot. AuxDF is the differential function combining child
// auxiliary snapshots into the parent's (the CreateAuxSnapshot method of
// the paper — replaying an aux eventlist onto the previous aux snapshot —
// is provided by the framework itself).
type AuxIndex interface {
	Name() string
	CreateAuxEvents(ev graph.Event, before *graphpool.View, aux AuxSnapshot) []AuxEvent
	AuxDF(children []AuxSnapshot) AuxSnapshot
}

// auxDelta is the stored difference between two aux snapshots.
type auxDelta struct {
	set  []kvPair
	dels []string
}

type kvPair struct{ k, v string }

func (d auxDelta) empty() bool { return len(d.set) == 0 && len(d.dels) == 0 }

// computeAuxDelta returns the delta that transforms source into target.
func computeAuxDelta(target, source AuxSnapshot) auxDelta {
	var d auxDelta
	for k, v := range target {
		if sv, ok := source[k]; !ok || sv != v {
			d.set = append(d.set, kvPair{k, v})
		}
	}
	for k := range source {
		if _, ok := target[k]; !ok {
			d.dels = append(d.dels, k)
		}
	}
	sort.Slice(d.set, func(i, j int) bool { return d.set[i].k < d.set[j].k })
	sort.Strings(d.dels)
	return d
}

func (d auxDelta) apply(a AuxSnapshot) {
	for _, k := range d.dels {
		delete(a, k)
	}
	for _, p := range d.set {
		a[p.k] = p.v
	}
}

// --- aux codec ---------------------------------------------------------
//
// Both kinds are written with the delta package's Writer and read with its
// Reader, as every other payload in the store is: keys and values go through
// the payload's string table (an aux eventlist names a key many times), and
// an eventlist's timestamps are gaps.

func encodeAuxDelta(d auxDelta) []byte {
	w := delta.NewWriter(delta.TagAuxDelta, 16*(len(d.set)+len(d.dels)))
	w.Uvarint(uint64(len(d.set)))
	for _, p := range d.set {
		w.Str(p.k)
		w.Str(p.v)
	}
	w.Uvarint(uint64(len(d.dels)))
	for _, k := range d.dels {
		w.Str(k)
	}
	return w.Bytes()
}

func decodeAuxDelta(b []byte) (auxDelta, error) {
	r := delta.NewReader(b, delta.TagAuxDelta)
	d := auxDelta{set: make([]kvPair, r.Count(2))}
	for i := range d.set {
		d.set[i] = kvPair{k: r.Str(), v: r.Str()}
	}
	d.dels = make([]string, r.Count(1))
	for i := range d.dels {
		d.dels[i] = r.Str()
	}
	if err := r.Err(); err != nil {
		return auxDelta{}, fmt.Errorf("aux delta: %w", err)
	}
	return d, nil
}

func encodeAuxEvents(evs []AuxEvent) []byte {
	w := delta.NewWriter(delta.TagAuxEvents, 8*len(evs))
	w.Uvarint(uint64(len(evs)))
	var prev graph.Time
	for _, ev := range evs {
		w.Byte(byte(ev.Op))
		w.Uvarint(uint64(ev.At - prev))
		w.Str(ev.Key)
		w.Str(ev.Val)
		prev = ev.At
	}
	return w.Bytes()
}

func decodeAuxEvents(b []byte) ([]AuxEvent, error) {
	r := delta.NewReader(b, delta.TagAuxEvents)
	evs := make([]AuxEvent, r.Count(4))
	var prev graph.Time
	for i := range evs {
		op := AuxOp(r.Byte())
		prev += graph.Time(r.Uvarint())
		evs[i] = AuxEvent{At: prev, Op: op, Key: r.Str(), Val: r.Str()}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("aux eventlist: %w", err)
	}
	return evs, nil
}

// --- aux retrieval -------------------------------------------------------

// auxIndexByName returns the position of a registered aux index.
func (dg *DeltaGraph) auxIndexByName(name string) (int, error) {
	for i, a := range dg.auxes {
		if a.Name() == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("deltagraph: no aux index named %q", name)
}

// GetAuxSnapshot reconstructs the auxiliary snapshot of the named index as
// of time t (the paper's GetAuxSnapshot, backing AuxHistQueryPoint).
func (dg *DeltaGraph) GetAuxSnapshot(name string, t graph.Time) (AuxSnapshot, error) {
	if err := dg.rlockBuilt(); err != nil {
		return nil, err
	}
	defer dg.mu.RUnlock()
	idx, err := dg.auxIndexByName(name)
	if err != nil {
		return nil, err
	}
	// Plan with aux-only weights. Pinned snapshots hold graph content only,
	// and aux events carry no old values to undo them by.
	comp := int(kvstore.ComponentAuxBase) + idx
	p := planner{dg: dg, sel: weightSelector{auxComponents: []int{comp}, perFetchCost: 16, skipMat: true, noBackward: true}}
	r, err := p.routeTo(t)
	if err != nil {
		return nil, err
	}
	tree, out := &planNode{}, make([]AuxSnapshot, 1)
	tree.insert(r, 0)
	err = execute(tree, AuxSnapshot{}, AuxSnapshot.clone, auxRun{dg, idx}.apply, out)
	return out[0], err
}

// auxRun applies steps to the snapshot of aux index idx.
type auxRun struct {
	dg  *DeltaGraph
	idx int
}

func (r auxRun) apply(aux AuxSnapshot, st step) (AuxSnapshot, error) {
	evs := r.dg.auxRecent[r.idx] // applyRecent's events; applyList decodes its own
	switch st.kind {
	case fromPinned: // a pending node, which holds its aux snapshots whole, or the empty anchor leaf
		if c := r.dg.pendingNode(st.node); c != nil {
			return c.aux[r.idx].clone(), nil
		}
		return AuxSnapshot{}, nil
	case fromCurrent:
		return r.dg.auxCur[r.idx].clone(), nil
	case applyDelta, applyList:
		buf, err := r.col(st.edge)
		if err != nil || buf == nil {
			return aux, err
		}
		if st.kind == applyDelta {
			d, err := decodeAuxDelta(buf)
			if err != nil {
				return nil, err
			}
			d.apply(aux)
			return aux, nil
		}
		if evs, err = decodeAuxEvents(buf); err != nil {
			return nil, err
		}
	}
	if st.back {
		return nil, fmt.Errorf("deltagraph: aux eventlists are forward-only; the planner must not undo one")
	}
	for _, ev := range evs {
		if ev.At > st.lo && ev.At <= st.hi {
			aux.apply(ev)
		}
	}
	return aux, nil
}

// col loads edge e's column of the aux index; nil when the column is empty.
func (r auxRun) col(e *skelEdge) ([]byte, error) {
	comp := kvstore.ComponentAuxBase + kvstore.Component(r.idx)
	buf, err := r.dg.store.Get(kvstore.EncodeKey(0, e.deltaID, comp))
	if err == kvstore.ErrNotFound {
		return nil, nil
	}
	return buf, err
}

// AuxIndexNames lists the registered auxiliary indexes.
func (dg *DeltaGraph) AuxIndexNames() []string {
	names := make([]string, len(dg.auxes))
	for i, a := range dg.auxes {
		names[i] = a.Name()
	}
	return names
}
