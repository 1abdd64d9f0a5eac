package fabric

import (
	"bytes"
	"testing"

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
			wire.Str(peerOpShip), wire.Bytes(persist.EncodeDelta(d)),
			wire.Int(int64(sc.TraceID)), wire.Int(int64(sc.SpanID)),
		})
		prefix := []byte{0, 0, 0, 0}
		got := appendShipRequest(prefix, sc, d)
		if !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], want) {
			t.Fatalf("ship request for %+v:\n got %x\nwant %x", d, got[4:], want)
		}
		if n := persist.DeltaSize(d); n != len(persist.EncodeDelta(d)) {
			t.Fatalf("DeltaSize = %d, encoding is %d bytes", n, len(persist.EncodeDelta(d)))
		}
	}
}
