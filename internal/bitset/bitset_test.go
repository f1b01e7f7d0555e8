package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	b.Clear(64)
	if b.Get(64) {
		t.Error("Clear failed")
	}
	b.Clear(100000) // beyond length: no-op
	if b.Count() != 3 {
		t.Errorf("Count after clear = %d", b.Count())
	}
}

func TestSetTo(t *testing.T) {
	var b Bits
	b.SetTo(5, true)
	if !b.Get(5) {
		t.Error("SetTo(true) failed")
	}
	b.SetTo(5, false)
	if b.Get(5) {
		t.Error("SetTo(false) failed")
	}
}

func TestAnyExcept(t *testing.T) {
	var b Bits
	b.Set(3)
	if b.AnyExcept(3) {
		t.Error("AnyExcept(3) with only bit 3 set")
	}
	if !b.AnyExcept(2) {
		t.Error("AnyExcept(2) should see bit 3")
	}
	b.Set(100)
	if !b.AnyExcept(3) {
		t.Error("AnyExcept(3) should see bit 100")
	}
	if b.AnyExcept(3, 100) {
		t.Error("AnyExcept(3,100) should be false")
	}
}

func TestCloneIndependent(t *testing.T) {
	var b Bits
	b.Set(7)
	c := b.Clone()
	c.Set(8)
	if b.Get(8) {
		t.Error("clone shares storage")
	}
	if !c.Get(7) {
		t.Error("clone lost bit")
	}
}

func TestClearAllAndString(t *testing.T) {
	var b Bits
	b.Set(0)
	b.Set(65)
	if got := b.String(); got != "{0,65}" {
		t.Errorf("String = %q", got)
	}
	b.ClearAll()
	if b.Any() {
		t.Error("ClearAll left bits")
	}
	if got := b.String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// SizeBytes is the heap a Bits owns outside the 16 bytes of the value itself
// (which its owner accounts for as part of its own record): nothing while
// the bitmap fits the inline word, then a slice header and the words above
// the first.
func TestSizeBytes(t *testing.T) {
	var b Bits
	if b.SizeBytes() != 0 {
		t.Error("empty bitset should report 0 bytes")
	}
	b.Set(0)
	b.Set(63)
	if b.SizeBytes() != 0 {
		t.Errorf("SizeBytes = %d with every bit in the inline word, want 0", b.SizeBytes())
	}
	if got := testing.AllocsPerRun(10, func() { var c Bits; c.Set(63); c.Clear(63); _ = c.Any() }); got != 0 {
		t.Errorf("a bitmap below 64 bits allocated %v times", got)
	}
	b.Set(200)
	if b.SizeBytes() != 24+3*8 {
		t.Errorf("SizeBytes = %d, want 48 (slice header + words 1..3)", b.SizeBytes())
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
	if got := b.String(); got != "{0,63,130}" {
		t.Errorf("after AndNot: %s", got)
	}
	var high Bits
	high.Set(130)
	b.AndNot(&high)
	if got := b.String(); got != "{0,63}" || b.SizeBytes() != 0 {
		t.Errorf("after clearing the last high bit: %s, %d bytes above the inline word (want none)", got, b.SizeBytes())
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
				b.Clear(bit)
				delete(model, bit)
			case 2:
				if b.Get(bit) != model[bit] {
					return false
				}
			}
		}
		count := 0
		for range model {
			count++
		}
		return b.Count() == count
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
