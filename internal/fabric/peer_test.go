package fabric

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"montsalvat/internal/channel"
	"montsalvat/internal/persist"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// TestShipRequestBytesUnchanged: encoding a delta straight into the peer
// frame puts the same bytes on the channel as building the request out
// of values did, so fabric.ship_bytes_per_op and what a replica decodes
// do not move with the copies that were removed.
func TestShipRequestBytesUnchanged(t *testing.T) {
	deltas := []persist.Delta{
		{},
		{
			Stamp: 7, LastLSN: 1 << 40,
			Remove: []string{"p/wal-0001", "p/ckpt-0003"},
			Chunks: []persist.Chunk{
				{Name: "p/wal-0002", Off: 4096, Data: bytes.Repeat([]byte{0xAB}, 300)},
				{Name: "p/ckpt-0004", Data: nil},
			},
		},
	}
	sc := telemetry.SpanContext{TraceID: 0xFEEDFACE, SpanID: 42}
	for _, d := range deltas {
		want := wire.MarshalList([]wire.Value{
			wire.Str(peerOpShip), wire.Bytes(persist.AppendDelta(nil, d)),
			wire.Int(int64(sc.TraceID)), wire.Int(int64(sc.SpanID)),
		})
		prefix := []byte{0, 0, 0, 0}
		got := appendShipRequest(prefix, sc, d)
		if !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], want) {
			t.Fatalf("ship request for %+v:\n got %x\nwant %x", d, got[4:], want)
		}
		if n := persist.DeltaSize(d); n != len(persist.AppendDelta(nil, d)) {
			t.Fatalf("DeltaSize = %d, encoding is %d bytes", n, len(persist.AppendDelta(nil, d)))
		}
	}
}

// TestPeerListenerCapsPlaintextFrames: before attestation a peer
// listener reads nothing larger than the handshake cap, like the
// gateway. It used to accept any announcement up to the 16 MiB budget of
// an attested channel and allocate it on the word of whoever connected.
func TestPeerListenerCapsPlaintextFrames(t *testing.T) {
	refused := make(chan error, 1)
	host := &PeerHost{
		Identity: PeerIdentity{Origin: "shard-0"},
		Logf: func(_ string, args ...any) {
			for _, a := range args {
				if err, ok := a.(error); ok {
					refused <- err
				}
			}
		},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- host.Serve(ln) }()
	defer func() {
		host.Close()
		<-served
	}()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x01, 0x00, 0x00, 0x00, 0xAA}); err != nil { // "16 MiB follow"
		t.Fatal(err)
	}
	select {
	case err := <-refused:
		if !errors.Is(err, ErrPeerHandshake) || !errors.Is(err, channel.ErrFrameTooLarge) {
			t.Fatalf("16 MiB hello: %v, want ErrPeerHandshake over ErrFrameTooLarge", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the host is still waiting for the rest of a 16 MiB hello")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("%d bytes allocated on the word of an unauthenticated peer", grown)
	}
}

// FuzzPeerRequest: whatever an attested peer sends, a host that serves
// nothing answers with a typed error reply and never panics. The bind
// and call requests peer channels once carried are unknown operations.
func FuzzPeerRequest(f *testing.F) {
	sc := telemetry.SpanContext{TraceID: 7, SpanID: 9}
	f.Add(wire.MarshalList([]wire.Value{wire.Str(peerOpHave)}))
	f.Add(appendShipRequest(nil, sc, persist.Delta{Stamp: 1, Chunks: []persist.Chunk{{Name: "p/wal-0001", Data: []byte("x")}}}))
	f.Add(wire.MarshalList([]wire.Value{wire.Str("bind"), wire.Str("kv")}))
	f.Add(wire.MarshalList([]wire.Value{
		wire.Str("call"), wire.Str("shard-1"), wire.Int(1), wire.Str("put"),
		wire.List(wire.Str("k"), wire.Map(wire.Pair{Key: "r", Val: wire.Ref("KVStore", 3)})), wire.Int(7), wire.Int(9),
	}))
	f.Add(wire.MarshalList([]wire.Value{wire.Str("evict")}))
	host := &PeerHost{Identity: PeerIdentity{Origin: "shard-0"}}
	f.Fuzz(func(t *testing.T, req []byte) {
		resp := host.dispatch(req)
		if len(resp) != 2 {
			t.Fatalf("reply of %d fields", len(resp))
		}
		if status, _ := resp[0].AsStr(); status != peerStatusError {
			t.Fatalf("status %q from a host that serves nothing", status)
		}
		if msg, ok := resp[1].AsStr(); !ok || msg == "" {
			t.Fatal("error reply without a message")
		}
	})
}
