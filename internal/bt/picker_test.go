package bt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func pickCtx(n int) *PickContext {
	return &PickContext{
		Have:    NewBitfield(n),
		Pending: NewBitfield(n),
		PeerHas: NewBitfield(n),
		Avail:   make([]int, n),
		Rand:    rand.New(rand.NewSource(5)),
	}
}

func TestRarestFirstPicksRarest(t *testing.T) {
	ctx := pickCtx(5)
	ctx.PeerHas.SetAll()
	ctx.Avail = []int{5, 3, 1, 4, 2}
	if got := (RarestFirst{}).PickPiece(ctx); got != 2 {
		t.Errorf("picked %d, want rarest (2)", got)
	}
}

func TestRarestFirstSkipsOwnedAndPending(t *testing.T) {
	ctx := pickCtx(4)
	ctx.PeerHas.SetAll()
	ctx.Avail = []int{1, 1, 2, 3}
	ctx.Have.Set(0)
	ctx.Pending.Set(1)
	if got := (RarestFirst{}).PickPiece(ctx); got != 2 {
		t.Errorf("picked %d, want 2", got)
	}
}

func TestRarestFirstRespectsPeerHas(t *testing.T) {
	ctx := pickCtx(4)
	ctx.PeerHas.Set(3) // peer only has piece 3
	ctx.Avail = []int{0, 0, 0, 9}
	if got := (RarestFirst{}).PickPiece(ctx); got != 3 {
		t.Errorf("picked %d, want 3", got)
	}
}

func TestRarestFirstExhausted(t *testing.T) {
	ctx := pickCtx(3)
	ctx.PeerHas.SetAll()
	ctx.Have.SetAll()
	if got := (RarestFirst{}).PickPiece(ctx); got != -1 {
		t.Errorf("picked %d from nothing, want -1", got)
	}
}

func TestRarestFirstTieBreakIsUniformish(t *testing.T) {
	counts := map[int]int{}
	ctx := pickCtx(4)
	ctx.PeerHas.SetAll()
	ctx.Avail = []int{2, 2, 2, 2}
	for i := 0; i < 400; i++ {
		counts[(RarestFirst{}).PickPiece(ctx)]++
	}
	for p := 0; p < 4; p++ {
		if counts[p] < 40 {
			t.Errorf("piece %d picked %d/400 times; tie-break not random", p, counts[p])
		}
	}
}

func TestSequentialPicksLowest(t *testing.T) {
	ctx := pickCtx(6)
	ctx.PeerHas.SetAll()
	ctx.Have.Set(0)
	ctx.Pending.Set(1)
	if got := (Sequential{}).PickPiece(ctx); got != 2 {
		t.Errorf("picked %d, want 2", got)
	}
}

func TestRandomPicksEligible(t *testing.T) {
	ctx := pickCtx(10)
	ctx.PeerHas.Set(4)
	ctx.PeerHas.Set(7)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		p := (Random{}).PickPiece(ctx)
		if p != 4 && p != 7 {
			t.Fatalf("picked ineligible piece %d", p)
		}
		seen[p] = true
	}
	if !seen[4] || !seen[7] {
		t.Errorf("random picker never picked one of the eligible pieces: %v", seen)
	}
}

// Property: every picker returns either -1 or an eligible piece.
func TestPropertyPickersReturnEligible(t *testing.T) {
	pickers := []Picker{RarestFirst{}, Sequential{}, Random{}}
	prop := func(haveBits, pendingBits, peerBits []bool, seed int64) bool {
		n := 50
		ctx := pickCtx(n)
		ctx.Rand = rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			if i < len(haveBits) && haveBits[i] {
				ctx.Have.Set(i)
			}
			if i < len(pendingBits) && pendingBits[i] {
				ctx.Pending.Set(i)
			}
			if i < len(peerBits) && peerBits[i] {
				ctx.PeerHas.Set(i)
			}
			ctx.Avail[i] = i % 7
		}
		for _, pk := range pickers {
			got := pk.PickPiece(ctx)
			if got == -1 {
				// Must truly have no eligible piece.
				for i := 0; i < n; i++ {
					if refEligible(ctx, i) {
						return false
					}
				}
				continue
			}
			if !refEligible(ctx, got) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// The bit-at-a-time pickers below are reference models: the word-scanning
// pickers must agree with them pick for pick and draw for draw.

func refEligible(ctx *PickContext, i int) bool {
	return ctx.PeerHas.Has(i) && !ctx.Have.Has(i) && !ctx.Pending.Has(i)
}

type refRarestFirst struct{}

func (refRarestFirst) PickPiece(ctx *PickContext) int {
	best := -1
	bestAvail := int(^uint(0) >> 1)
	ties := 0
	for i := 0; i < ctx.PeerHas.Len(); i++ {
		if !refEligible(ctx, i) {
			continue
		}
		a := 0
		if i < len(ctx.Avail) {
			a = ctx.Avail[i]
		}
		switch {
		case a < bestAvail:
			best, bestAvail, ties = i, a, 1
		case a == bestAvail:
			ties++
			if ctx.Rand != nil && ctx.Rand.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

type refSequential struct{}

func (refSequential) PickPiece(ctx *PickContext) int {
	for i := 0; i < ctx.PeerHas.Len(); i++ {
		if refEligible(ctx, i) {
			return i
		}
	}
	return -1
}

type refRandom struct{}

func (refRandom) PickPiece(ctx *PickContext) int {
	chosen := -1
	seen := 0
	for i := 0; i < ctx.PeerHas.Len(); i++ {
		if !refEligible(ctx, i) {
			continue
		}
		seen++
		if ctx.Rand == nil || ctx.Rand.Intn(seen) == 0 {
			chosen = i
		}
	}
	return chosen
}

// randomBitfield sets each of n bits with probability density.
func randomBitfield(rng *rand.Rand, n int, density float64) *Bitfield {
	b := NewBitfield(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

// TestPickersMatchReference drives each picker and its reference model from
// two sources with the same seed over random piece maps, including a Have
// shorter than PeerHas, and requires the same pick and the same number of
// draws (the next Int63 of both sources agrees).
func TestPickersMatchReference(t *testing.T) {
	pairs := []struct {
		name     string
		got, ref Picker
	}{
		{"RarestFirst", RarestFirst{}, refRarestFirst{}},
		{"Sequential", Sequential{}, refSequential{}},
		{"Random", Random{}, refRandom{}},
	}
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 63, 64, 65, 127, 1000, 1024} {
		for trial := 0; trial < 60; trial++ {
			haveLen := n
			if trial%4 == 3 {
				haveLen = rng.Intn(n + 1) // shorter local map: the tail reads as missing
			}
			density := rng.Float64()
			ctx := &PickContext{
				Have:    randomBitfield(rng, haveLen, density),
				Pending: randomBitfield(rng, n, density/4),
				PeerHas: randomBitfield(rng, n, rng.Float64()),
				Avail:   make([]int, n-rng.Intn(2)), // sometimes one short
			}
			for i := range ctx.Avail {
				ctx.Avail[i] = rng.Intn(13)
			}
			for _, pc := range pairs {
				seed := rng.Int63()
				ctx.Rand = rand.New(rand.NewSource(seed))
				got := pc.got.PickPiece(ctx)
				gotNext := ctx.Rand.Int63()
				ctx.Rand = rand.New(rand.NewSource(seed))
				want := pc.ref.PickPiece(ctx)
				wantNext := ctx.Rand.Int63()
				if got != want || gotNext != wantNext {
					t.Fatalf("%s n=%d trial %d: pick %d (next draw %d), reference %d (next draw %d)",
						pc.name, n, trial, got, gotNext, want, wantNext)
				}
			}
		}
	}
}

// BenchmarkPickPiece is the mobile-wlan picker shape: 1,024 pieces, all
// held by the peer, half held locally, 20 pending, availability in 0–12.
func BenchmarkPickPiece(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(3))
	ctx := pickCtx(n)
	ctx.PeerHas.SetAll()
	for _, i := range rng.Perm(n)[:n/2] {
		ctx.Have.Set(i)
	}
	for ctx.Pending.Count() < 20 {
		if i := rng.Intn(n); !ctx.Have.Has(i) {
			ctx.Pending.Set(i)
		}
	}
	for i := range ctx.Avail {
		ctx.Avail[i] = rng.Intn(13)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pickSink = (RarestFirst{}).PickPiece(ctx)
	}
}

var pickSink int
