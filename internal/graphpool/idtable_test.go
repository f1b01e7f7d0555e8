package graphpool

import (
	"math/rand"
	"testing"

	"historygraph/internal/graph"
)

// tableModel is an idTable over a slab of node records beside a Go map of
// what it must hold.
type tableModel struct {
	t     idTable[poolNode, graph.NodeID]
	recs  slab[poolNode]
	model map[graph.NodeID]uint32
}

func newTableModel(seed uint64) *tableModel {
	m := &tableModel{model: map[graph.NodeID]uint32{}}
	m.t = idTable[poolNode, graph.NodeID]{seed: seed, recs: &m.recs}
	return m
}

// record returns a new record carrying id.
func (m *tableModel) record(id graph.NodeID) uint32 {
	i := m.recs.add()
	m.recs.at(i).id = id
	return i
}

// drop frees record i, zeroing the id on it.
func (m *tableModel) drop(i uint32) { m.recs.remove(i) }

func (m *tableModel) add(id graph.NodeID) {
	i := m.record(id)
	m.t.add(id, i)
	m.model[id] = i
}

// repoint moves id to a new record, as sweepRecord moves an edge id to its
// next record when its first goes.
func (m *tableModel) repoint(id graph.NodeID) {
	i := m.record(id)
	m.t.repoint(id, i)
	m.drop(m.model[id])
	m.model[id] = i
}

// remove takes id out before its record is freed, as evictNode does.
func (m *tableModel) remove(id graph.NodeID) {
	m.t.remove(id)
	m.drop(m.model[id])
	delete(m.model, id)
}

// wraps reports whether the probe run from id's slot to the next empty one
// passes the end of the slots: a delete of id must shift entries back across
// the wrap.
func (m *tableModel) wraps(id graph.NodeID) bool {
	s, _ := m.t.find(id)
	for ; m.t.slots[s] != 0; s++ {
		if s == len(m.t.slots)-1 {
			return m.t.slots[0] != 0
		}
	}
	return false
}

func (m *tableModel) check(t *testing.T, absent []graph.NodeID) {
	t.Helper()
	if m.t.n != len(m.model) {
		t.Fatalf("the table holds %d ids, the map %d", m.t.n, len(m.model))
	}
	if 4*m.t.n > 3*len(m.t.slots) {
		t.Fatalf("%d ids in %d slots: more than three quarters full", m.t.n, len(m.t.slots))
	}
	for id, want := range m.model {
		if got, ok := m.t.get(id); !ok || got != want {
			t.Fatalf("get(%d) = %d, %v; the map has %d", id, got, ok, want)
		}
	}
	for _, id := range absent {
		if _, held := m.model[id]; !held {
			if got, ok := m.t.get(id); ok {
				t.Fatalf("get(%d) = %d for an id the map does not hold", id, got)
			}
		}
	}
}

// idFamilies are the kinds of ids the table tests run on: the k-th id of
// each.
var idFamilies = []struct {
	name string
	id   func(k int) graph.NodeID
}{
	{"sequential", func(k int) graph.NodeID { return graph.NodeID(k + 1) }},
	{"strided", func(k int) graph.NodeID { return graph.NodeID(k+1) << 20 }},
	{"negative", func(k int) graph.NodeID { return -graph.NodeID(k + 1) }},
	{"above 2^40", func(k int) graph.NodeID { return 1<<40 + graph.NodeID(k) }},
}

var tableSeeds = []uint64{0, 1, 0x9e3779b97f4a7c15, rand.Uint64()}

// TestIDTableMatchesMap runs random adds, repoints and removes on an idTable
// beside a Go map, over ids that are sequential, strided by 2^20, negative
// and based at 2^40, under several seeds, until every id has been removed:
// the table must find what the map holds and nothing else, stay at most
// three quarters full, and give its slots back once empty.
func TestIDTableMatchesMap(t *testing.T) {
	wrapped := 0
	for _, f := range idFamilies {
		for _, seed := range tableSeeds {
			rng := rand.New(rand.NewSource(int64(seed)))
			for _, universe := range []int{40, 3000} { // a table of 64 slots, where runs often wrap, and of 4 096
				m := newTableModel(seed)
				var absent []graph.NodeID
				for k := 0; k < 50; k++ {
					absent = append(absent, f.id(universe+rng.Intn(universe)))
				}
				for step := 0; step < 20000; step++ {
					id := f.id(rng.Intn(universe))
					_, held := m.model[id]
					switch r := rng.Intn(10); {
					case !held && (step < 12000 || r < 2):
						m.add(id)
					case !held:
					case r < 3:
						m.repoint(id)
					case r < 6 || step >= 12000:
						if m.wraps(id) {
							wrapped++
						}
						m.remove(id)
					}
					if step%500 == 0 {
						m.check(t, absent)
					}
				}
				m.check(t, absent)
				for id := range m.model {
					if m.wraps(id) {
						wrapped++
					}
					m.remove(id)
					if len(m.model)%97 == 0 {
						m.check(t, absent)
					}
				}
				m.check(t, absent)
				if m.t.slots != nil || m.t.bytes() != 0 {
					t.Errorf("%s, seed %#x: an emptied table keeps %d slots (%d B)", f.name, seed, len(m.t.slots), m.t.bytes())
				}
			}
		}
	}
	if wrapped == 0 {
		t.Error("no remove shifted entries back across the end of the slots")
	}
}

// TestIDTableRemoveAcrossTheWrap removes, for each kind of id and seed, the
// first of three ids whose probes all start at the last of 8 slots: the two
// behind it, in slots 0 and 1, must move back across the end of the slots, and
// a fourth id, at home in slot 0, must stay found.
func TestIDTableRemoveAcrossTheWrap(t *testing.T) {
	for _, f := range idFamilies {
		for _, seed := range tableSeeds {
			m := newTableModel(seed)
			m.t.slots = make([]uint32, 8) // a table's first size, which home reads
			var last []graph.NodeID
			zero := graph.NodeID(0)
			for k := 0; len(last) < 3 || zero == 0; k++ {
				switch id := f.id(k); m.t.home(id) {
				case 7:
					if len(last) < 3 {
						last = append(last, id)
					}
				case 0:
					if zero == 0 {
						zero = id
					}
				}
			}
			m.t.slots = nil
			for _, id := range append(last, zero) {
				m.add(id)
			}
			if len(m.t.slots) != 8 || !m.wraps(last[0]) {
				t.Fatalf("%s, seed %#x: the probe run from id %d should wrap in 8 slots: %v", f.name, seed, last[0], m.t.slots)
			}
			m.remove(last[0])
			m.check(t, []graph.NodeID{last[0]})
			if s, _ := m.t.find(last[1]); s != 7 {
				t.Errorf("%s, seed %#x: id %d, at home in slot 7, is in slot %d after the remove", f.name, seed, last[1], s)
			}
		}
	}
}
