package wp2p

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/sim"
)

func mfCtx(n int, progress float64, seed int64) *bt.PickContext {
	ctx := &bt.PickContext{
		Have:     bt.NewBitfield(n),
		Pending:  bt.NewBitfield(n),
		PeerHas:  bt.NewBitfield(n),
		Avail:    make([]int, n),
		Progress: progress,
		Rand:     rand.New(rand.NewSource(seed)),
	}
	ctx.PeerHas.SetAll()
	return ctx
}

func TestMFAllSequentialAtZeroProgress(t *testing.T) {
	mf := NewMobilityFetch(nil) // PrProgress
	for i := 0; i < 50; i++ {
		ctx := mfCtx(100, 0, int64(i))
		// Make piece 70 rarest so rarest-first would pick it.
		for j := range ctx.Avail {
			ctx.Avail[j] = 5
		}
		ctx.Avail[70] = 1
		if got := mf.PickPiece(ctx); got != 0 {
			t.Fatalf("at progress 0 picked %d, want sequential (0)", got)
		}
	}
	r, s := mf.Picks()
	if r != 0 || s != 50 {
		t.Errorf("picks: rarest=%d seq=%d", r, s)
	}
}

func TestMFAllRarestAtFullProgress(t *testing.T) {
	mf := NewMobilityFetch(nil)
	for i := 0; i < 50; i++ {
		ctx := mfCtx(100, 1.0, int64(i))
		for j := range ctx.Avail {
			ctx.Avail[j] = 5
		}
		ctx.Avail[70] = 1
		if got := mf.PickPiece(ctx); got != 70 {
			t.Fatalf("at progress 1 picked %d, want rarest (70)", got)
		}
	}
	r, s := mf.Picks()
	if s != 0 || r != 50 {
		t.Errorf("picks: rarest=%d seq=%d", r, s)
	}
}

func TestMFBlendsAtIntermediateProgress(t *testing.T) {
	mf := NewMobilityFetch(nil)
	rng := rand.New(rand.NewSource(9))
	n := 1000
	rarest := 0
	for i := 0; i < n; i++ {
		ctx := mfCtx(100, 0.3, rng.Int63())
		for j := range ctx.Avail {
			ctx.Avail[j] = 5
		}
		ctx.Avail[70] = 1
		if mf.PickPiece(ctx) == 70 {
			rarest++
		}
	}
	frac := float64(rarest) / float64(n)
	if math.Abs(frac-0.3) > 0.06 {
		t.Errorf("rarest fraction = %.2f at progress 0.3, want ≈ 0.30", frac)
	}
}

func TestMFCustomPr(t *testing.T) {
	mf := NewMobilityFetch(func(*bt.PickContext) float64 { return 0 })
	ctx := mfCtx(10, 0.99, 1)
	if got := mf.PickPiece(ctx); got != 0 {
		t.Errorf("custom pr=0 picked %d, want 0", got)
	}
}

// refMF is a bit-at-a-time model of MobilityFetch, written against the
// exported Bitfield API: one Float64 draw chooses the strategy, then
// rarest-first reservoir-samples ties in piece order.
func refMF(ctx *bt.PickContext) int {
	eligible := func(i int) bool {
		return ctx.PeerHas.Has(i) && !ctx.Have.Has(i) && !ctx.Pending.Has(i)
	}
	if ctx.Rand.Float64() >= ctx.Progress {
		for i := 0; i < ctx.PeerHas.Len(); i++ {
			if eligible(i) {
				return i
			}
		}
		return -1
	}
	best, bestAvail, ties := -1, int(^uint(0)>>1), 0
	for i := 0; i < ctx.PeerHas.Len(); i++ {
		if !eligible(i) {
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
			if ctx.Rand.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// TestMFMatchesReference drives MobilityFetch and refMF from two sources
// with the same seed and requires the same pick and the same number of
// draws, over random piece maps including a Have shorter than PeerHas.
func TestMFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	random := func(n int, density float64) *bt.Bitfield {
		b := bt.NewBitfield(n)
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				b.Set(i)
			}
		}
		return b
	}
	mf := NewMobilityFetch(nil)
	for _, n := range []int{1, 63, 64, 65, 127, 1000, 1024} {
		for trial := 0; trial < 60; trial++ {
			haveLen := n
			if trial%4 == 3 {
				haveLen = rng.Intn(n + 1)
			}
			density := rng.Float64()
			ctx := &bt.PickContext{
				Have:     random(haveLen, density),
				Pending:  random(n, density/4),
				PeerHas:  random(n, rng.Float64()),
				Avail:    make([]int, n),
				Progress: rng.Float64(),
			}
			for i := range ctx.Avail {
				ctx.Avail[i] = rng.Intn(13)
			}
			seed := rng.Int63()
			ctx.Rand = rand.New(rand.NewSource(seed))
			got := mf.PickPiece(ctx)
			gotNext := ctx.Rand.Int63()
			ctx.Rand = rand.New(rand.NewSource(seed))
			want := refMF(ctx)
			wantNext := ctx.Rand.Int63()
			if got != want || gotNext != wantNext {
				t.Fatalf("n=%d trial %d: pick %d (next draw %d), reference %d (next draw %d)",
					n, trial, got, gotNext, want, wantNext)
			}
		}
	}
}

func TestStabilityTracker(t *testing.T) {
	e := sim.NewEngine()
	tr := NewStabilityTracker(e)
	e.RunUntil(3 * time.Minute)
	if got := tr.Connected(); got != 3*time.Minute {
		t.Errorf("Connected = %v", got)
	}
	tr.Reset()
	if got := tr.Connected(); got != 0 {
		t.Errorf("Connected after Reset = %v", got)
	}
}

func TestPrStabilityDoubles(t *testing.T) {
	e := sim.NewEngine()
	tr := NewStabilityTracker(e)
	pr := PrStability(tr, 0.2, 5*time.Minute)
	ctx := &bt.PickContext{}
	if got := pr(ctx); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("pr at t=0: %v, want 0.2", got)
	}
	e.RunUntil(5 * time.Minute)
	if got := pr(ctx); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("pr after one doubling: %v, want 0.4", got)
	}
	e.RunUntil(30 * time.Minute)
	if got := pr(ctx); got != 1 {
		t.Errorf("pr capped: %v, want 1", got)
	}
	// A disconnection resets selfishness.
	tr.Reset()
	if got := pr(ctx); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("pr after reset: %v, want 0.2", got)
	}
}

func TestPrStabilityDefaults(t *testing.T) {
	e := sim.NewEngine()
	tr := NewStabilityTracker(e)
	pr := PrStability(tr, 0, 0)
	if got := pr(&bt.PickContext{}); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("default base = %v, want 0.2", got)
	}
}

func TestIdentityStore(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(3))
	s := NewIdentityStore()
	h1 := bt.NewMetaInfo("a", 1000, 0).InfoHash()
	h2 := bt.NewMetaInfo("b", 1000, 0).InfoHash()
	id1 := s.For(h1, e.Rand())
	if got := s.For(h1, e.Rand()); got != id1 {
		t.Error("same swarm returned a different id")
	}
	if got := s.For(h2, e.Rand()); got == id1 {
		t.Error("different swarms share an id")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	s.Forget(h1)
	if got := s.For(h1, e.Rand()); got == id1 {
		t.Error("Forget did not clear the id")
	}
}
