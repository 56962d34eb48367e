package bt

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/transport"
)

// stubConn is a transport.Conn that discards everything sent on it, for
// driving a client's request scheduling without running a network.
type stubConn struct {
	onClose func(error)
	closed  bool
}

func (*stubConn) LocalAddr() netem.Addr      { return netem.Addr{} }
func (*stubConn) RemoteAddr() netem.Addr     { return netem.Addr{} }
func (*stubConn) Write(int)                  {}
func (*stubConn) SendMessage(any, int)       {}
func (*stubConn) Buffered() int64            { return 0 }
func (s *stubConn) Close()                   { s.Abort() }
func (*stubConn) SetOnEstablished(func())    {}
func (*stubConn) SetOnDeliver(func(int))     {}
func (*stubConn) SetOnMessage(func(any))     {}
func (s *stubConn) SetOnClose(f func(error)) { s.onClose = f }
func (*stubConn) SetOnWritable(func())       {}
func (s *stubConn) Abort() {
	if !s.closed {
		s.closed = true
		s.onClose(transport.ErrClosed)
	}
}

// stubPeer attaches an unchoked, interested peer that has every piece.
func stubPeer(c *Client, id PeerID) *peerConn {
	p := newPeerConn(c, &stubConn{}, netem.Addr{}, false)
	p.id, p.gotHandshake = id, true
	p.peerChoking, p.amInterested = false, true
	p.remoteHas.SetAll()
	c.availReplace(nil, p.remoteHas)
	c.peers = append(c.peers, p)
	return p
}

// activateRequested makes piece an active piece whose blocks are all
// requested from q.
func activateRequested(c *Client, piece int, q *peerConn) *pieceProgress {
	prog := c.newProgress(piece)
	c.active = append(c.active, prog)
	c.pending.Set(piece)
	for b := 0; b < prog.received.Len(); b++ {
		ref := blockRef{piece, b}
		c.requested.Put(ref, []*peerConn{q})
		prog.asked.Set(b)
		q.requestsOut.Put(ref, 0)
	}
	return prog
}

func TestCheckStateReportsAskedMismatch(t *testing.T) {
	env := newSwarmEnv(90, 1024*1024, 256*1024)
	c := env.client(Config{})
	q := stubPeer(c, "q")
	prog := activateRequested(c, 0, q)
	var got []string
	report := func(inv, detail string) { got = append(got, inv+": "+detail) }
	c.CheckState(report)
	if len(got) != 0 {
		t.Fatalf("coherent state reported %v", got)
	}

	// Block 3 loses its asked bit while still requested; block 5 keeps
	// its bit after its requester set empties.
	prog.asked.Clear(3)
	c.requested.Delete(blockRef{0, 5})
	c.CheckState(report)
	if len(got) != 2 {
		t.Fatalf("got %d reports, want 2: %v", len(got), got)
	}
	for i, want := range []string{"block 3 asked=false, requested=true", "block 5 asked=true, requested=false"} {
		if !strings.HasPrefix(got[i], "bt.pieces.asked: ") || !strings.Contains(got[i], want) {
			t.Errorf("report %d = %q, want bt.pieces.asked with %q", i, got[i], want)
		}
	}
}

func TestNewProgressSeedsAskedFromRequested(t *testing.T) {
	env := newSwarmEnv(91, 1024*1024, 256*1024)
	c := env.client(Config{})
	q := stubPeer(c, "q")
	// A request that outlived the progress it was made for.
	c.requested.Put(blockRef{2, 7}, []*peerConn{q})
	prog := c.newProgress(2)
	for b := 0; b < prog.asked.Len(); b++ {
		if prog.asked.Has(b) != (b == 7) {
			t.Errorf("block %d: asked=%v", b, prog.asked.Has(b))
		}
	}
	if got := freeBlock(prog); got != 0 {
		t.Errorf("freeBlock = %d, want 0", got)
	}
}

func TestFreeBlockSkipsReceivedAndAsked(t *testing.T) {
	env := newSwarmEnv(92, 4*1024*1024, 2*1024*1024) // 128 blocks per piece
	c := env.client(Config{})
	prog := c.newProgress(0)
	for b := 0; b < 100; b++ {
		if b%2 == 0 {
			prog.received.Set(b)
		} else {
			prog.asked.Set(b)
		}
	}
	if got := freeBlock(prog); got != 100 {
		t.Errorf("freeBlock = %d, want 100", got)
	}
	for b := 100; b < prog.received.Len(); b++ {
		prog.asked.Set(b)
	}
	if got := freeBlock(prog); got != -1 {
		t.Errorf("freeBlock on a fully asked piece = %d, want -1", got)
	}
}

// connectedLeech returns a leech whose handshake with a seed has completed,
// and its connection to that seed.
func connectedLeech(t *testing.T, seedVal int64) (*swarmEnv, *Client, *peerConn) {
	t.Helper()
	env := newSwarmEnv(seedVal, 1024*1024, 64*1024)
	seed := env.client(Config{Seed: true})
	leech := env.client(Config{})
	seed.Start()
	leech.Start()
	env.engine.RunFor(time.Second)
	for _, p := range leech.peers {
		if p.gotHandshake && p.id == seed.PeerID() {
			return env, leech, p
		}
	}
	t.Fatal("leech never completed a handshake with the seed")
	return nil, nil, nil
}

// deliverBitfield hands a BITFIELD to p and checks the connection is
// dropped, the client's bookkeeping stays coherent and the download still
// completes.
func deliverBitfield(t *testing.T, env *swarmEnv, leech *Client, p *peerConn, bits *Bitfield) {
	t.Helper()
	p.onMessage(msgBitfield{Bits: bits})
	if !p.closed {
		t.Fatal("connection survived a malformed bitfield")
	}
	leech.CheckState(func(inv, detail string) { t.Errorf("%s: %s", inv, detail) })
	env.engine.RunFor(3 * time.Minute)
	if !leech.Complete() {
		t.Errorf("leech incomplete after the dropped connection: %.0f%%", leech.Progress()*100)
	}
}

func TestNilBitfieldDropsPeer(t *testing.T) {
	env, leech, p := connectedLeech(t, 93)
	deliverBitfield(t, env, leech, p, nil)
}

func TestWrongLengthBitfieldDropsPeer(t *testing.T) {
	env, leech, p := connectedLeech(t, 94)
	n := env.torrent.NumPieces()
	// Only pieces past the end: accepted, rarest-first would pick one of
	// them and pickBlock would panic marking it pending.
	long := NewBitfield(n + 64)
	for i := n; i < long.Len(); i++ {
		long.Set(i)
	}
	deliverBitfield(t, env, leech, p, long)

	env, leech, p = connectedLeech(t, 95)
	short := NewBitfield(n - 1)
	short.SetAll()
	deliverBitfield(t, env, leech, p, short)
}

// BenchmarkFillRequests tops up one peer's pipeline at the default depth
// while 20 active pieces are fully requested from another peer, so every
// fill scans all of them before the picker starts a new piece; the new
// piece is retired after each fill. Pieces are 16 blocks, as on the
// mobile-wlan workload.
func BenchmarkFillRequests(b *testing.B) {
	env := newSwarmEnv(96, 1024*256*1024, 256*1024)
	c := env.client(Config{})
	q := stubPeer(c, "q")
	p := stubPeer(c, "p")
	for piece := 0; piece < 20; piece++ {
		activateRequested(c, piece*50, q)
	}
	// Availability as on mobile-wlan, where rarest-first ties are few; with
	// every count equal the fill would be one tie-break draw per piece.
	rng := rand.New(rand.NewSource(4))
	for i := range c.avail {
		c.avail[i] = rng.Intn(13)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.fillRequests(p)
		for p.requestsOut.Len() > 0 {
			ref := p.requestsOut.KeyAt(0)
			p.requestsOut.Delete(ref)
			c.dropRequester(ref, p)
		}
		for _, prog := range c.active[20:] {
			c.pending.Clear(prog.piece)
		}
		c.active = c.active[:20]
	}
}
