package tcpsim

import (
	"maps"
	"testing"

	"repro/internal/nsim"
	"repro/internal/sim"
)

// TestConnIndexDemux checks the receiver-chosen index path: after the
// handshake both ends know each other's index, an index is honoured only
// for the four-tuple of the connection it names, and a transfer's segments
// reach their connections with the hint alone.
func TestConnIndexDemux(t *testing.T) {
	loop, cs, ss := testNet(t, 10*sim.Millisecond, 0, 0)
	var accepted []*Conn
	if err := ss.Listen(serverAP, func(c *Conn) { accepted = append(accepted, c) }); err != nil {
		t.Fatal(err)
	}
	a, err := cs.Dial(clientAddr, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cs.Dial(clientAddr, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	loop.RunFor(50 * sim.Millisecond)
	if len(accepted) != 2 {
		t.Fatalf("accepted %d connections, want 2", len(accepted))
	}
	for _, c := range []*Conn{a, b, accepted[0], accepted[1]} {
		if c.State() != StateEstablished || c.id == 0 || c.peerID == 0 {
			t.Fatalf("%v: state %v, id %d, peer %d", c.LocalAddr(), c.State(), c.id, c.peerID)
		}
	}
	if a.peerID != accepted[0].id || accepted[0].peerID != a.id {
		t.Fatalf("indices not exchanged: a=(%d,%d) server=(%d,%d)", a.id, a.peerID, accepted[0].id, accepted[0].peerID)
	}

	seg := &Segment{Flags: FlagACK}
	dg := &nsim.Datagram{Src: b.remote, Dst: b.local, Payload: seg}
	for _, tc := range []struct {
		idx  uint32
		want *Conn
	}{
		{b.id, b},
		{a.id, nil}, // a live connection, but not this four-tuple
		{0, nil},
		{uint32(len(cs.tab) + 3), nil},
	} {
		seg.DstConn = tc.idx
		if got := cs.byIndex(dg, seg); got != tc.want {
			t.Errorf("byIndex(%d) = %p, want %p", tc.idx, got, tc.want)
		}
	}

	// A transfer after the handshake needs no four-tuple lookup: with the
	// server's map emptied, a segment that missed the index would be
	// dropped as stray and the transfer would stall.
	saved := maps.Clone(ss.conns)
	clear(ss.conns)
	var got int
	accepted[0].OnData(func(p []byte) { got += len(p) })
	if err := a.Write(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(500 * sim.Millisecond)
	if got != 64<<10 {
		t.Fatalf("received %d bytes over the index path, want %d", got, 64<<10)
	}
	maps.Copy(ss.conns, saved)
}
