package graph

// This file provides the deterministic hashing used in two places:
//
//   - horizontal partitioning of the node-ID space (Section 4.2: partition_id
//     = h_p(node_id)), and
//   - the differential functions' event sampling (Section 5.2: "randomly
//     choose half of the events ... by using a hash function that maps the
//     events to 0 or 1"). Using the same hash for choosing both the delta
//     and the removal subsets keeps Mixed/Balanced parents well formed.
//
// The hash is FNV-1a over the element identity, which is stable across runs
// and platforms so that an index written by one process is readable by
// another.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// HashNode hashes a node identifier.
func HashNode(n NodeID) uint64 { return fnvMix(fnvOffset64, uint64(n)) }

// NumSlots is the size of the fixed hash-slot space the node IDs are
// mapped into. Cluster routing owns whole slots, never raw hash ranges:
// a partition's share of the key space is a set of slots, so ownership
// can move slot by slot (elastic resharding) without rehashing anything.
const NumSlots = 256

// Slot maps a node to its hash slot.
func Slot(n NodeID) int { return int(HashNode(n) % NumSlots) }

// SlotOfEvent routes an event to a slot by its primary node (edge events
// carry their From endpoint there, so an edge and its attribute events
// share a slot with the endpoint).
func SlotOfEvent(ev Event) int { return Slot(ev.Node) }

// Partition maps a node to one of p partitions (p >= 1) through the slot
// space: slot i belongs to partition i mod p. Routing through slots keeps
// a boot-time hash layout and a slot table initialised with the same rule
// in exact agreement, so a cluster can adopt slot-based routing without
// moving any data.
func Partition(n NodeID, p int) int {
	if p <= 1 {
		return 0
	}
	return Slot(n) % p
}

// PartitionOfEvent routes an event to a storage partition by its primary
// node (edge events are routed by their From endpoint so an edge and both
// of its attribute events land together).
func PartitionOfEvent(ev Event, p int) int { return Partition(ev.Node, p) }

// ElementKind distinguishes element identities for hashing.
type ElementKind uint8

// Element kinds used by HashElement.
const (
	KindNode ElementKind = iota + 1
	KindEdge
	KindNodeAttr
	KindEdgeAttr
)

// HashElement hashes the identity of a graph element: a node, an edge, or an
// attribute entry (id, attribute-name). Attribute values are deliberately
// not part of the identity: the differential functions sample by identity so
// a value change does not move the element across the sampling boundary.
func HashElement(kind ElementKind, id int64, attr string) uint64 {
	h := fnvMix(fnvOffset64, uint64(kind))
	h = fnvMix(h, uint64(id))
	if attr != "" {
		h = fnvString(h, attr)
	}
	return h
}

// Hash01 maps a 64-bit hash to [0, 1) with 53 bits of precision; used to
// compare against the differential functions' sampling ratios r, r1, r2.
func Hash01(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
