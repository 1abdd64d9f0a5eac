package serve

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"montsalvat/internal/wire"
)

func testCipherPair(t *testing.T) (client, server *sessionCipher) {
	t.Helper()
	var key [32]byte
	copy(key[:], []byte("0123456789abcdef0123456789abcdef"))
	c, err := newSessionCipher(key, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSessionCipher(key, false)
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

func TestSessionCipherRoundTrip(t *testing.T) {
	c, s := testCipherPair(t)
	for i := 0; i < 5; i++ {
		msg := []byte{byte(i), 1, 2, 3}
		got, err := s.open(c.seal(msg))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("frame %d: got %x, want %x", i, got, msg)
		}
		back, err := c.open(s.seal([]byte("reply")))
		if err != nil || string(back) != "reply" {
			t.Fatalf("reply %d: %q, %v", i, back, err)
		}
	}
}

func TestSessionCipherRejectsTamper(t *testing.T) {
	c, s := testCipherPair(t)
	sealed := c.seal([]byte("payload"))
	sealed[len(sealed)/2] ^= 0x01
	if _, err := s.open(sealed); err == nil {
		t.Fatal("tampered frame accepted")
	}
}

// TestSessionCipherRejectsReplayAndReorder: the counter nonce makes each
// frame valid exactly once, in order.
func TestSessionCipherRejectsReplayAndReorder(t *testing.T) {
	c, s := testCipherPair(t)
	f1 := c.seal([]byte("one"))
	f2 := c.seal([]byte("two"))
	if _, err := s.open(f2); err == nil {
		t.Fatal("out-of-order frame accepted")
	}
	if _, err := s.open(f1); err != nil {
		t.Fatalf("in-order frame rejected: %v", err)
	}
	if _, err := s.open(f1); err == nil {
		t.Fatal("replayed frame accepted")
	}
}

// TestSessionCipherDirectionality: a peer cannot reflect a frame back.
func TestSessionCipherDirectionality(t *testing.T) {
	c, _ := testCipherPair(t)
	sealed := c.seal([]byte("to server"))
	if _, err := c.open(sealed); err == nil {
		t.Fatal("reflected frame accepted")
	}
}

func TestRequestCodecRoundTrip(t *testing.T) {
	reqs := []request{
		{id: 1, op: opPing, budget: time.Second},
		{id: 2, op: opNew, class: "KVStore", budget: 250 * time.Millisecond,
			args: []wire.Value{wire.Str("x"), wire.Int(7)}},
		{id: 3, op: opCall, handle: 42, method: "put",
			args: []wire.Value{wire.Ref("Entry", 5), wire.List(wire.Bool(true))}},
		{id: 4, op: opRelease, handle: 9},
	}
	for _, want := range reqs {
		got, err := decodeRequest(appendRequest(nil, want))
		if err != nil {
			t.Fatalf("%s: %v", want.op, err)
		}
		if got.id != want.id || got.op != want.op || got.class != want.class ||
			got.handle != want.handle || got.method != want.method ||
			len(got.args) != len(want.args) {
			t.Fatalf("%s: got %+v, want %+v", want.op, got, want)
		}
	}
}

func TestRequestCodecRejects(t *testing.T) {
	if _, err := decodeRequest(nil); err == nil {
		t.Fatal("empty request accepted")
	}
	bad := appendRequest(nil, request{id: 7, op: "evict", budget: time.Second})
	r, err := decodeRequest(bad)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown op: %v", err)
	}
	if r.id != 7 {
		t.Fatalf("request id lost on decode error: %d", r.id)
	}
}

func TestResponseStatusMapping(t *testing.T) {
	cases := []struct {
		status string
		want   error
	}{
		{statusOverloaded, ErrOverloaded},
		{statusDraining, ErrDraining},
		{statusDeadline, ErrDeadline},
		{statusForeignRef, ErrForeignRef},
		{statusBadRequest, ErrBadRequest},
		{statusSession, ErrSessionLimit},
	}
	for _, tc := range cases {
		resp, err := decodeResponse(appendResponse(nil, response{id: 1, status: tc.status, message: "m"}))
		if err != nil {
			t.Fatalf("%s: %v", tc.status, err)
		}
		if got := resp.err(); !errors.Is(got, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.status, got, tc.want)
		}
		// errStatus is the inverse map.
		if got := errStatus(tc.want); got != tc.status {
			t.Fatalf("errStatus(%v) = %s, want %s", tc.want, got, tc.status)
		}
	}
	ok, err := decodeResponse(appendResponse(nil, response{id: 2, status: statusOK, result: wire.Int(5)}))
	if err != nil || ok.err() != nil {
		t.Fatalf("ok response: %v, %v", err, ok.err())
	}
	if n, _ := ok.result.AsInt(); n != 5 {
		t.Fatalf("result = %v", ok.result)
	}
	app, _ := decodeResponse(appendResponse(nil, response{id: 3, status: statusAppError, message: "boom"}))
	var appErr *AppError
	if !errors.As(app.err(), &appErr) || appErr.Msg != "boom" {
		t.Fatalf("app error = %v", app.err())
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame announcement accepted")
	}
}
