// Package bitset provides the small dynamic bitset used by GraphPool to
// track, per graph element, which of the active graphs contain it
// (Section 6 of the paper). The zero value is an empty bitset ready to use.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Bits is a growable bitmap. The zero value has all bits clear.
//
// Bits 0–63 live in the value itself, so a bitmap that never sees bit 64
// allocates nothing; the words above are allocated the first time one of
// their bits is set and dropped again once AndNot leaves them all clear.
// A Bits is 16 bytes. Copying one does not copy the words above the first:
// move it (as a slice of records does when it grows), or Clone it.
type Bits struct {
	first uint64
	rest  *[]uint64 // word i holds bits 64(i+1) … 64(i+1)+63
}

// words returns how many words the bitmap has, the inline one included.
func (b *Bits) words() int {
	if b.rest == nil {
		return 1
	}
	return 1 + len(*b.rest)
}

// Word returns word w of the bitmap (word 0 is bits 0–63; 0 beyond the last).
func (b *Bits) Word(w int) uint64 {
	if w == 0 {
		return b.first
	}
	if b.rest == nil || w > len(*b.rest) {
		return 0
	}
	return (*b.rest)[w-1]
}

// Set sets bit i, growing the bitmap if needed.
func (b *Bits) Set(i int) {
	if i < wordBits {
		b.first |= 1 << i
		return
	}
	w := i/wordBits - 1
	if b.rest == nil || w >= len(*b.rest) {
		// Exactly as many words as the bit needs: a pool's bitmaps grow
		// with the number of graphs it holds, which is to say rarely.
		grown := make([]uint64, w+1)
		if b.rest != nil {
			copy(grown, *b.rest)
		}
		b.rest = &grown
	}
	(*b.rest)[w] |= 1 << (i % wordBits)
}

// Clear clears bit i. Clearing a bit beyond the current length is a no-op.
func (b *Bits) Clear(i int) {
	if i < wordBits {
		b.first &^= 1 << i
	} else if w := i / wordBits; b.rest != nil && w <= len(*b.rest) {
		(*b.rest)[w-1] &^= 1 << (i % wordBits)
	}
}

// Get reports whether bit i is set.
func (b *Bits) Get(i int) bool {
	if i < wordBits {
		return b.first&(1<<i) != 0
	}
	return b.Word(i/wordBits)&(1<<(i%wordBits)) != 0
}

// SetTo sets bit i to v.
func (b *Bits) SetTo(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b.Clear(i)
	}
}

// Any reports whether any bit is set.
func (b *Bits) Any() bool { return b.first != 0 || b.rest != nil && b.anyExcept(&Bits{}) }

// AnyExcept reports whether any bit other than the listed ones is set.
func (b *Bits) AnyExcept(except ...int) bool {
	var mask Bits
	for _, i := range except {
		mask.Set(i)
	}
	return b.anyExcept(&mask)
}

func (b *Bits) anyExcept(mask *Bits) bool {
	for w := range b.words() {
		if b.Word(w)&^mask.Word(w) != 0 {
			return true
		}
	}
	return false
}

// AndNot clears every bit that is set in mask, a word at a time, and gives
// the words above the first back once none of them holds a bit.
func (b *Bits) AndNot(mask *Bits) {
	b.first &^= mask.first
	if b.rest == nil {
		return
	}
	var left uint64
	for i := range *b.rest {
		(*b.rest)[i] &^= mask.Word(i + 1)
		left |= (*b.rest)[i]
	}
	if left == 0 {
		b.rest = nil
	}
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	n := 0
	for w := range b.words() {
		n += bits.OnesCount64(b.Word(w))
	}
	return n
}

// ClearAll clears every bit, retaining capacity.
func (b *Bits) ClearAll() {
	b.first = 0
	if b.rest != nil {
		clear(*b.rest)
	}
}

// Clone returns a copy of the bitset that shares nothing with it.
func (b *Bits) Clone() Bits {
	c := Bits{first: b.first}
	if b.rest != nil {
		rest := append([]uint64(nil), *b.rest...)
		c.rest = &rest
	}
	return c
}

// SizeBytes returns the heap the bitset owns outside its own 16 bytes: 0
// while every bit set so far is below 64, else the slice header and the
// words above the first. GraphPool's memory accounting adds it to the size
// of the record the Bits is a field of.
func (b *Bits) SizeBytes() int {
	if b.rest == nil {
		return 0
	}
	return 24 + 8*cap(*b.rest)
}

// String renders the set bits as e.g. "{0,3,17}".
func (b *Bits) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for wi := range b.words() {
		for w := b.Word(wi); w != 0; w &= w - 1 {
			if sb.Len() > 1 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(wi*wordBits + bits.TrailingZeros64(w)))
		}
	}
	sb.WriteByte('}')
	return sb.String()
}
