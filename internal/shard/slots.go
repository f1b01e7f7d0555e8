package shard

// The versioned routing table: graph.NumSlots hash slots, each owned by
// exactly one partition, stamped with a monotonically increasing epoch.
// The boot-time table assigns slot i to partition i mod n — exactly the
// layout graph.Partition produces — so a cluster that never reshards
// routes identically to the historical fixed-hash scheme. A reshard
// builds a successor table (same slots, some reassigned), bumps the
// epoch, pushes the new ownership to every worker, and atomically swaps
// the coordinator's routing pointer; workers answer requests stamped
// with any other epoch with 410 Gone, which the coordinator turns into
// one retry against the fresh table.

import (
	"fmt"

	"historygraph"
	"historygraph/internal/graph"
)

// NumSlots aliases the shared slot-space size.
const NumSlots = graph.NumSlots

// SlotOfEvent returns the slot that owns an event (edge events hash by
// their From endpoint, same as PartitionOf).
func SlotOfEvent(ev historygraph.Event) int { return graph.SlotOfEvent(ev) }

// SlotTable maps every slot to its owning partition index. Tables are
// immutable once installed: a reshard builds a new one.
type SlotTable struct {
	Epoch uint64
	Slots [NumSlots]int
}

// DefaultSlotTable is the boot-time layout: slot i -> partition i mod n,
// which agrees with graph.Partition so preloaded fixed-hash data needs
// no movement when slot routing takes over.
func DefaultSlotTable(n int) *SlotTable {
	if n < 1 {
		n = 1
	}
	t := &SlotTable{Epoch: 1}
	for s := range t.Slots {
		t.Slots[s] = s % n
	}
	return t
}

// Partition returns the partition owning an event under this table.
func (t *SlotTable) Partition(ev historygraph.Event) int {
	return t.Slots[graph.SlotOfEvent(ev)]
}

// OwnedBy returns the sorted slot list a partition owns.
func (t *SlotTable) OwnedBy(p int) []int {
	var out []int
	for s, owner := range t.Slots {
		if owner == p {
			out = append(out, s)
		}
	}
	return out
}

// Reassign returns a successor table (epoch+1) with the given slots
// moved to partition target. It fails if a slot index is out of range.
func (t *SlotTable) Reassign(slots []int, target int) (*SlotTable, error) {
	nt := &SlotTable{Epoch: t.Epoch + 1, Slots: t.Slots}
	for _, s := range slots {
		if s < 0 || s >= NumSlots {
			return nil, fmt.Errorf("shard: slot %d out of range [0, %d)", s, NumSlots)
		}
		nt.Slots[s] = target
	}
	return nt, nil
}

// Renumber returns a copy with partition indices rewritten through m
// (old index -> new index); used when a merge retires partitions and the
// surviving sets are compacted. Every owner must appear in m.
func (t *SlotTable) Renumber(m map[int]int) (*SlotTable, error) {
	nt := &SlotTable{Epoch: t.Epoch}
	for s, owner := range t.Slots {
		nw, ok := m[owner]
		if !ok {
			return nil, fmt.Errorf("shard: slot %d owner %d has no renumbering", s, owner)
		}
		nt.Slots[s] = nw
	}
	return nt, nil
}
