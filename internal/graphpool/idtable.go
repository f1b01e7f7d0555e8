package graphpool

import (
	"unsafe"

	"historygraph/internal/graph"
)

// idTable finds a record of the slab recs by its id. It is open-addressed:
// each slot is a record's index plus one (0: an empty slot), and an id's probe
// runs on from the slot its hash names to the first empty one. A slot holds
// no id; a probe compares the id on the record the slot names (key). So an id
// costs its table 5 to 11 B, as full as the table is, where a map entry costs
// about 30 (mapSlot).
//
// The table stays at most three quarters full and doubles when it would not.
// A delete shifts back the entries behind it in its probe run, so the table
// has no tombstones, and an emptied table gives its slots back, as an emptied
// slab gives back its chunks. The hash is keyed by a random seed of the pool,
// as a Go map's is, because ids come from clients. Nothing ranges over the
// table: the pool's walks are slab scans, so no answer depends on the seed.
type idTable[R poolNode | poolEdge, K graph.NodeID | graph.EdgeID] struct {
	slots []uint32 // a power of two long, nil while the table is empty
	n     int      // ids held
	seed  uint64
	recs  *slab[R]
}

// idSlot is about what one id costs a table: a 4-byte slot, in a table
// between three eighths and three quarters full.
const idSlot = 8

// key returns the id on record i. Both record types begin with their id, an
// int64 (TestRecordLayout), which is read in place: read through a function
// value or a type switch, it made a lookup slower than a Go map's (on 20 000
// nodes, 28–36 ns against the map's 25; read in place, 20).
func (t *idTable[R, K]) key(i uint32) K {
	return K(*(*int64)(unsafe.Pointer(&t.recs.chunks[i/chunkLen][i%chunkLen])))
}

// home returns the slot id's probe starts at.
func (t *idTable[R, K]) home(id K) int {
	h := uint64(id) ^ t.seed
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return int(h^h>>33) & (len(t.slots) - 1)
}

// find returns the slot holding id's record and what the slot holds, or else
// the empty slot that ends id's probe and 0 (-1 and 0 while the table has no
// slots).
func (t *idTable[R, K]) find(id K) (int, uint32) {
	if len(t.slots) == 0 {
		return -1, 0
	}
	mask := len(t.slots) - 1
	for s := t.home(id); ; s = (s + 1) & mask {
		if v := t.slots[s]; v == 0 || t.key(v-1) == id {
			return s, v
		}
	}
}

// get returns the index of id's record, if the table holds id.
func (t *idTable[R, K]) get(id K) (uint32, bool) {
	_, v := t.find(id)
	return v - 1, v != 0
}

// add enters id, which the table does not hold, for record i, which carries
// id.
func (t *idTable[R, K]) add(id K, i uint32) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	s, _ := t.find(id)
	t.slots[s] = i + 1
	t.n++
}

// repoint points id, which the table holds, at record i, which carries id
// too.
func (t *idTable[R, K]) repoint(id K, i uint32) {
	s, _ := t.find(id)
	t.slots[s] = i + 1
}

// remove takes id, which the table holds, out of it. Each entry behind it in
// its probe run moves up into the hole if its probe passes the hole, so that
// no probe meets an empty slot before its id.
func (t *idTable[R, K]) remove(id K) {
	hole, _ := t.find(id)
	mask := len(t.slots) - 1
	for s := (hole + 1) & mask; t.slots[s] != 0; s = (s + 1) & mask {
		// The entry's probe passes the hole unless it starts after the
		// hole, up to s.
		if home := t.home(t.key(t.slots[s] - 1)); (s-home)&mask >= (s-hole)&mask {
			t.slots[hole], hole = t.slots[s], s
		}
	}
	t.slots[hole] = 0
	if t.n--; t.n == 0 {
		t.slots = nil
	}
}

// grow doubles the slots and enters every id again.
func (t *idTable[R, K]) grow() {
	old := t.slots
	t.slots = make([]uint32, max(8, 2*len(old)))
	mask := len(t.slots) - 1
	for _, v := range old {
		if v != 0 {
			s := t.home(t.key(v - 1))
			for t.slots[s] != 0 {
				s = (s + 1) & mask
			}
			t.slots[s] = v
		}
	}
}

// bytes returns the heap the table holds.
func (t *idTable[R, K]) bytes() int64 { return heapSize(uintptr(cap(t.slots)) * 4) }
