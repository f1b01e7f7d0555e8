package kvstore

import (
	"encoding/binary"
	"fmt"
)

// Partitioned composes k stores into one, routing every key by the
// partition prefix EncodeKey writes. It models the paper's distributed
// deployment (Section 4.6): one storage unit per machine, all deltas and
// eventlists split into k partition-local pieces, fetched in parallel.
type Partitioned struct {
	parts []Store
}

// NewPartitioned wraps the given per-partition stores. The slice order
// defines partition IDs.
func NewPartitioned(parts []Store) *Partitioned {
	return &Partitioned{parts: parts}
}

// NewMemPartitioned creates a Partitioned store over p fresh MemStores.
func NewMemPartitioned(p int) *Partitioned {
	parts := make([]Store, p)
	for i := range parts {
		parts[i] = NewMemStore()
	}
	return NewPartitioned(parts)
}

// NumPartitions returns the number of underlying stores.
func (p *Partitioned) NumPartitions() int { return len(p.parts) }

// Part returns the store for partition i.
func (p *Partitioned) Part(i int) Store { return p.parts[i] }

func (p *Partitioned) route(key []byte) (Store, error) {
	if len(key) < 2 {
		return nil, fmt.Errorf("kvstore: partitioned key too short")
	}
	id := int(binary.BigEndian.Uint16(key[:2]))
	if id >= len(p.parts) {
		return nil, fmt.Errorf("kvstore: partition %d out of range (have %d)", id, len(p.parts))
	}
	return p.parts[id], nil
}

// Get implements Store.
func (p *Partitioned) Get(key []byte) ([]byte, error) {
	st, err := p.route(key)
	if err != nil {
		return nil, err
	}
	return st.Get(key)
}

// Put implements Store.
func (p *Partitioned) Put(key, value []byte) error {
	st, err := p.route(key)
	if err != nil {
		return err
	}
	return st.Put(key, value)
}

// Delete implements Store.
func (p *Partitioned) Delete(key []byte) error {
	st, err := p.route(key)
	if err != nil {
		return err
	}
	return st.Delete(key)
}

// Len implements Store (sum over partitions).
func (p *Partitioned) Len() int {
	n := 0
	for _, st := range p.parts {
		n += st.Len()
	}
	return n
}

// SizeOnDisk implements Store (sum over partitions).
func (p *Partitioned) SizeOnDisk() int64 {
	var n int64
	for _, st := range p.parts {
		n += st.SizeOnDisk()
	}
	return n
}

// Sync implements Store.
func (p *Partitioned) Sync() error {
	for _, st := range p.parts {
		if err := st.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Store; it closes every partition and returns the first
// error.
func (p *Partitioned) Close() error {
	var first error
	for _, st := range p.parts {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
