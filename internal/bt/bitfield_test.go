package bt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitfieldBasics(t *testing.T) {
	b := NewBitfield(100)
	if b.Len() != 100 || b.Count() != 0 || b.Complete() {
		t.Fatalf("fresh bitfield: len=%d count=%d complete=%v", b.Len(), b.Count(), b.Complete())
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(99)
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	for _, i := range []int{0, 63, 64, 99} {
		if !b.Has(i) {
			t.Errorf("Has(%d) = false", i)
		}
	}
	if b.Has(1) || b.Has(-1) || b.Has(100) {
		t.Error("spurious Has")
	}
	b.Set(0) // idempotent
	if b.Count() != 4 {
		t.Errorf("double Set changed count to %d", b.Count())
	}
	b.Clear(0)
	if b.Has(0) || b.Count() != 3 {
		t.Errorf("Clear failed: count=%d", b.Count())
	}
	b.Clear(0) // idempotent
	if b.Count() != 3 {
		t.Errorf("double Clear changed count to %d", b.Count())
	}
}

func TestBitfieldSetAllComplete(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		b := NewBitfield(n)
		b.SetAll()
		if !b.Complete() || b.Count() != n {
			t.Errorf("n=%d: complete=%v count=%d", n, b.Complete(), b.Count())
		}
		if b.Has(n) {
			t.Errorf("n=%d: Has(n) = true past the end", n)
		}
	}
}

func TestBitfieldClone(t *testing.T) {
	b := NewBitfield(10)
	b.Set(3)
	c := b.Clone()
	c.Set(4)
	if b.Has(4) {
		t.Error("mutating clone affected original")
	}
	if !c.Has(3) {
		t.Error("clone lost bits")
	}
}

func TestBitfieldPrefixLen(t *testing.T) {
	tests := []struct {
		set  []int
		n    int
		want int
	}{
		{nil, 10, 0},
		{[]int{0}, 10, 1},
		{[]int{0, 1, 2}, 10, 3},
		{[]int{0, 1, 3}, 10, 2},
		{[]int{1, 2, 3}, 10, 0},
		{[]int{0, 1, 2, 3, 4}, 5, 5},
	}
	for _, tt := range tests {
		b := NewBitfield(tt.n)
		for _, i := range tt.set {
			b.Set(i)
		}
		if got := b.PrefixLen(); got != tt.want {
			t.Errorf("set %v: PrefixLen = %d, want %d", tt.set, got, tt.want)
		}
	}
}

func TestBitfieldSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Set did not panic")
		}
	}()
	NewBitfield(5).Set(5)
}

// Property: a bitfield agrees with a reference map implementation under an
// arbitrary operation sequence, through both the per-bit and the word-level
// accessors.
func TestPropertyBitfieldMatchesReference(t *testing.T) {
	prop := func(ops []uint16, otherOps []uint16, from uint8) bool {
		const n = 200
		b := NewBitfield(n)
		ref := make(map[int]bool)
		if from&1 != 0 { // dense maps too: start full
			b.SetAll()
			for i := 0; i < n; i++ {
				ref[i] = true
			}
		}
		for _, op := range ops {
			i := int(op % n)
			if op&0x8000 != 0 {
				b.Clear(i)
				delete(ref, i)
			} else {
				b.Set(i)
				ref[i] = true
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Has(i) != ref[i] {
				return false
			}
		}
		// word: bit j of word w is piece 64w+j; past the end reads zero.
		for w := 0; w < (n+63)/64+2; w++ {
			var want uint64
			for j := 0; j < 64; j++ {
				if ref[w*64+j] {
					want |= 1 << uint(j)
				}
			}
			if b.word(w) != want {
				return false
			}
		}
		// nextSet / nextClear: the first set / clear index at or after i.
		start := int(from) % (n + 10)
		wantSet, wantClear := -1, -1
		for i := start; i < n; i++ {
			if ref[i] && wantSet < 0 {
				wantSet = i
			}
			if !ref[i] && wantClear < 0 {
				wantClear = i
			}
		}
		if b.nextSet(start) != wantSet || b.nextClear(start) != wantClear {
			return false
		}
		// anyAndNot against a map of another length: past its end the
		// other map reads as clear.
		o := NewBitfield(int(from) % n)
		for _, op := range otherOps {
			if i := int(op) % (o.Len() + 1); i < o.Len() {
				o.Set(i)
			}
		}
		wantAny := false
		for i := range ref {
			if !o.Has(i) {
				wantAny = true
			}
		}
		if b.anyAndNot(o) != wantAny {
			return false
		}
		// PrefixLen is the first unset index.
		want := n
		for i := 0; i < n; i++ {
			if !ref[i] {
				want = i
				break
			}
		}
		return b.PrefixLen() == want
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
