package bitset

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// set returns the bits set in b, lowest first.
func set(b *Bits) []int {
	var out []int
	for wi := range b.words() {
		for w := b.Word(wi); w != 0; w &= w - 1 {
			out = append(out, wi*wordBits+bits.TrailingZeros64(w))
		}
	}
	return out
}

// clearBit clears bit i, the one way a program clears bits.
func clearBit(b *Bits, i int) {
	var mask Bits
	mask.Set(i)
	b.AndNot(&mask)
}

func TestSetGetClear(t *testing.T) {
	var b Bits
	if b.Get(0) || b.Any() {
		t.Fatal("zero value must be empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(200)
	for _, i := range []int{0, 63, 64, 200} {
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(199) {
		t.Error("unset bit reads set")
	}
	if got := len(set(&b)); got != 4 {
		t.Errorf("%d bits set, want 4", got)
	}
	clearBit(&b, 64)
	if b.Get(64) {
		t.Error("clearing bit 64 failed")
	}
	clearBit(&b, 100000) // beyond length: no-op
	if got := len(set(&b)); got != 3 {
		t.Errorf("%d bits set after clearing, want 3", got)
	}
	// A bitmap that stays below bit 64 lives in its own 16 bytes.
	if got := testing.AllocsPerRun(10, func() { var c Bits; c.Set(63); clearBit(&c, 63); _ = c.Any() }); got != 0 {
		t.Errorf("a bitmap below 64 bits allocated %v times", got)
	}
}

func TestAndNot(t *testing.T) {
	var b, mask Bits
	for _, i := range []int{0, 5, 63, 64, 130} {
		b.Set(i)
	}
	mask.Set(5)
	mask.Set(64)
	mask.Set(500) // wider than b
	b.AndNot(&mask)
	if got := set(&b); !slices.Equal(got, []int{0, 63, 130}) {
		t.Errorf("after AndNot: %v", got)
	}
	var high Bits
	high.Set(130)
	b.AndNot(&high)
	if got := set(&b); !slices.Equal(got, []int{0, 63}) || b.rest != nil {
		t.Errorf("after clearing the last high bit: %v, words above the inline one %v (want none)", got, b.rest)
	}
	b.AndNot(&b)
	if b.Any() {
		t.Error("AndNot of itself left bits")
	}
}

// Property: a Bits behaves exactly like a map[int]bool under a random
// operation sequence.
func TestBitsMatchesMapModel(t *testing.T) {
	check := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var b Bits
		model := map[int]bool{}
		for i := 0; i < int(n)+10; i++ {
			bit := rng.Intn(300)
			switch rng.Intn(4) {
			case 3:
				var mask Bits
				for j := rng.Intn(4); j >= 0; j-- {
					gone := rng.Intn(300)
					mask.Set(gone)
					delete(model, gone)
				}
				b.AndNot(&mask)
			case 0:
				b.Set(bit)
				model[bit] = true
			case 1:
				clearBit(&b, bit)
				delete(model, bit)
			case 2:
				if b.Get(bit) != model[bit] {
					return false
				}
			}
		}
		return len(set(&b)) == len(model) && b.Any() == (len(model) > 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
