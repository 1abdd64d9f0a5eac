package serve

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"montsalvat/internal/channel"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// codecRequests is one request of each shape; the fuzz targets are
// seeded from it.
func codecRequests() []request {
	return []request{
		{id: 1, op: opPing, budget: time.Second},
		{id: 2, op: opNew, class: "KVStore", budget: 250 * time.Millisecond,
			args: []wire.Value{wire.Str("x"), wire.Int(7)}},
		{id: 3, op: opCall, handle: 42, method: "put",
			args: []wire.Value{wire.Ref("Entry", 5), wire.List(wire.Bool(true))}},
		{id: 4, op: opRelease, handle: 9},
	}
}

func TestRequestCodecRoundTrip(t *testing.T) {
	for _, want := range codecRequests() {
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
		// countReject is the inverse map.
		if got := new(Server).countReject(tc.want); got != tc.status {
			t.Fatalf("countReject(%v) = %s, want %s", tc.want, got, tc.status)
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

// TestHandshakeRefusalsAreTyped: a refusal the gateway sends in place of
// its attestation comes out of the channel as a *channel.RejectError
// carrying the status (channel.TestHandshake, "reject before attest");
// both Dial and Server.handshake hand it on as the sentinel.
func TestHandshakeRefusalsAreTyped(t *testing.T) {
	for status, want := range map[string]error{
		statusDraining:   ErrDraining,
		statusRecovering: ErrRecovering,
		statusSession:    ErrSessionLimit,
	} {
		err := handshakeErr(fmt.Errorf("admission: %w", &channel.RejectError{Status: status}))
		if !errors.Is(err, want) || errors.Is(err, ErrHandshake) {
			t.Fatalf("refusal %q surfaces as %v, want exactly %v", status, err, want)
		}
	}
	// Anything else stays the handshake failure it was.
	for _, err := range []error{
		&channel.RejectError{Status: channel.StatusVersion},
		fmt.Errorf("%w: quote not bound", channel.ErrHandshake),
	} {
		if got := handshakeErr(err); got != err || !errors.Is(got, ErrHandshake) {
			t.Fatalf("handshakeErr(%v) = %v", err, got)
		}
	}
}

// FuzzDecodeRequest: whatever opens under a session key decodes into a
// request or a typed ErrBadRequest, and a request that decodes is a
// fixed point of the codec.
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range codecRequests() {
		f.Add(appendRequest(nil, r))
	}
	f.Add(appendRequest(nil, request{id: 5, op: opBind, class: "kv", trace: telemetry.SpanContext{TraceID: 7, SpanID: 9}}))
	f.Add(appendRequest(nil, request{id: 7, op: "evict"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRequest(data)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		enc := appendRequest(nil, r)
		again, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("re-encoding of %+v does not decode: %v", r, err)
		}
		if !bytes.Equal(appendRequest(nil, again), enc) {
			t.Fatalf("%+v is not a fixed point of the codec", r)
		}
	})
}

// FuzzDecodeResponse is the same for what a client reads back.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(appendResponse(nil, response{id: 1, status: statusOK, result: wire.List(wire.Ref("KVStore", 3), wire.Null())}))
	f.Add(appendResponse(nil, response{id: 2, status: statusWrongShard, message: "owner=3 epoch=9"}))
	f.Add(appendResponse(nil, response{id: 3, status: statusAppError, message: "boom"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeResponse(data)
		if err != nil {
			return
		}
		_ = r.err() // whatever the status and message, a typed error or nil
		enc := appendResponse(nil, r)
		again, err := decodeResponse(enc)
		if err != nil {
			t.Fatalf("re-encoding of %+v does not decode: %v", r, err)
		}
		if !bytes.Equal(appendResponse(nil, again), enc) {
			t.Fatalf("%+v is not a fixed point of the codec", r)
		}
	})
}
