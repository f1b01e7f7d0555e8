// Package bitset provides the small dynamic bitset used by GraphPool to
// track, per graph element, which of the active graphs contain it
// (Section 6 of the paper). The zero value is an empty bitset ready to use.
package bitset

const wordBits = 64

// Bits is a growable bitmap. The zero value has all bits clear.
//
// Bits 0–63 live in the value itself, so a bitmap that never sees bit 64
// allocates nothing; the words above are allocated the first time one of
// their bits is set and dropped again once AndNot leaves them all clear.
// A Bits is 16 bytes. Copying one does not copy the words above the first:
// move it, as a slice of records does when it grows.
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

// Get reports whether bit i is set.
func (b *Bits) Get(i int) bool {
	if i < wordBits {
		return b.first&(1<<i) != 0
	}
	return b.Word(i/wordBits)&(1<<(i%wordBits)) != 0
}

// Any reports whether any bit is set.
func (b *Bits) Any() bool {
	for w := range b.words() {
		if b.Word(w) != 0 {
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
