// The Store interface and key helpers (package overview in doc.go).
package kvstore

import (
	"encoding/binary"
	"errors"
	"strconv"
)

// ErrNotFound is returned by Get when the key is absent.
var ErrNotFound = errors.New("kvstore: key not found")

// Store is the get/put interface DeltaGraph requires of its backend.
// Implementations must be safe for concurrent use.
type Store interface {
	// Get returns the value stored under key, or ErrNotFound.
	Get(key []byte) ([]byte, error)
	// Put stores value under key, replacing any existing value.
	Put(key, value []byte) error
	// Delete removes key. Deleting an absent key is a no-op.
	Delete(key []byte) error
	// Len returns the number of live keys.
	Len() int
	// SizeOnDisk returns the backing storage footprint in bytes (an
	// in-memory store reports the payload bytes it holds). The figure
	// benchmarks compare approaches' space by it.
	SizeOnDisk() int64
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// Component identifies one column of a delta in the columnar layout of
// Section 4.2.
type Component uint8

// Delta components. Aux components for user-defined auxiliary indexes start
// at ComponentAuxBase and are allocated sequentially per registered index.
const (
	ComponentStruct Component = iota
	ComponentNodeAttr
	ComponentEdgeAttr
	ComponentTransient
	ComponentAuxBase
)

var componentNames = [...]string{"struct", "nodeattr", "edgeattr", "transient"}

// String names the component; aux components render as aux0, aux1, ...
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "aux" + strconv.Itoa(int(c-ComponentAuxBase))
}

// EncodeKey builds the storage key <partition_id, delta_id, component>
// (Section 4.2). Keys sort by partition, then delta, then component.
func EncodeKey(partition int, deltaID uint64, component Component) []byte {
	key := make([]byte, 2+8+1)
	binary.BigEndian.PutUint16(key[0:2], uint16(partition))
	binary.BigEndian.PutUint64(key[2:10], deltaID)
	key[10] = byte(component)
	return key
}

// DecodeKey splits a key built by EncodeKey.
func DecodeKey(key []byte) (partition int, deltaID uint64, component Component, err error) {
	if len(key) != 11 {
		return 0, 0, 0, errors.New("kvstore: malformed key")
	}
	return int(binary.BigEndian.Uint16(key[0:2])), binary.BigEndian.Uint64(key[2:10]), Component(key[10]), nil
}
