package channel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/sgx"
	"montsalvat/internal/simcfg"
)

// ---- sealed frames -----------------------------------------------------

// memConn is the two byte streams of a connection laid open to the test:
// what this end wrote, and what it will read.
type memConn struct {
	net.Conn
	in, out bytes.Buffer
}

func (m *memConn) Read(p []byte) (int, error)  { return m.in.Read(p) }
func (m *memConn) Write(p []byte) (int, error) { return m.out.Write(p) }

// keyedPair is two ends armed with one key, as a completed handshake
// leaves them, on a frame budget of 1 KiB.
func keyedPair(t *testing.T) (init, resp *Conn, initWire, respWire *memConn) {
	t.Helper()
	var key [32]byte
	copy(key[:], "0123456789abcdef0123456789abcdef")
	initWire, respWire = &memConn{}, &memConn{}
	init, resp = newConn(initWire), newConn(respWire)
	for c, initiator := range map[*Conn]bool{init: true, resp: false} {
		if err := c.setKey(key, initiator); err != nil {
			t.Fatal(err)
		}
		c.budget = 1 << 10
	}
	return
}

// seal sends msg from c and returns the frame that reached the wire.
func seal(t *testing.T, c *Conn, w *memConn, msg string) []byte {
	t.Helper()
	w.out.Reset()
	n, err := c.Send(append(c.Frame(), msg...))
	if err != nil {
		t.Fatalf("send %q: %v", msg, err)
	}
	if n != len(msg)+Overhead || n != w.out.Len() {
		t.Fatalf("send %q: %d bytes reported, %d written, want %d", msg, n, w.out.Len(), len(msg)+Overhead)
	}
	return append([]byte(nil), w.out.Bytes()...)
}

// open delivers frame to c's end of the wire and receives it.
func open(c *Conn, w *memConn, frame []byte) (string, error) {
	w.in.Reset()
	w.in.Write(frame)
	plain, err := c.Recv()
	return string(plain), err
}

// TestSealedFrames is the one set of channel-cipher checks; gateway
// sessions and fabric peer links both run on exactly this code. It took
// over serve's TestSessionCipherRoundTrip (round-trip),
// TestSessionCipherRejectsTamper (tamper),
// TestSessionCipherRejectsReplayAndReorder (replay, reorder),
// TestSessionCipherDirectionality (reflection) and
// TestReadFrameRejectsOversized (over-budget); the peer cipher had none.
func TestSealedFrames(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, init, resp *Conn, iw, rw *memConn)
	}{
		{"round-trip", func(t *testing.T, init, resp *Conn, iw, rw *memConn) {
			for i := 0; i < 5; i++ {
				if got, err := open(resp, rw, seal(t, init, iw, "request")); err != nil || got != "request" {
					t.Fatalf("frame %d: %q, %v", i, got, err)
				}
				if got, err := open(init, iw, seal(t, resp, rw, "reply")); err != nil || got != "reply" {
					t.Fatalf("reply %d: %q, %v", i, got, err)
				}
			}
			// An empty payload is a frame too.
			if got, err := open(resp, rw, seal(t, init, iw, "")); err != nil || got != "" {
				t.Fatalf("empty frame: %q, %v", got, err)
			}
		}},
		{"tamper", func(t *testing.T, init, resp *Conn, iw, rw *memConn) {
			frame := seal(t, init, iw, "payload")
			frame[len(frame)/2] ^= 0x01
			if _, err := open(resp, rw, frame); !errors.Is(err, ErrAuth) {
				t.Fatalf("tampered frame: %v, want ErrAuth", err)
			}
		}},
		{"replay", func(t *testing.T, init, resp *Conn, iw, rw *memConn) {
			frame := seal(t, init, iw, "once")
			if _, err := open(resp, rw, frame); err != nil {
				t.Fatalf("first delivery: %v", err)
			}
			if _, err := open(resp, rw, frame); !errors.Is(err, ErrAuth) {
				t.Fatalf("replayed frame: %v, want ErrAuth", err)
			}
		}},
		{"reorder", func(t *testing.T, init, resp *Conn, iw, rw *memConn) {
			first, second := seal(t, init, iw, "one"), seal(t, init, iw, "two")
			if _, err := open(resp, rw, second); !errors.Is(err, ErrAuth) {
				t.Fatalf("out-of-order frame: %v, want ErrAuth", err)
			}
			// A refused frame does not advance the counter.
			if got, err := open(resp, rw, first); err != nil || got != "one" {
				t.Fatalf("in-order frame after the refusal: %q, %v", got, err)
			}
		}},
		{"reflection", func(t *testing.T, init, resp *Conn, iw, rw *memConn) {
			frame := seal(t, init, iw, "to the responder")
			if _, err := open(init, iw, frame); !errors.Is(err, ErrAuth) {
				t.Fatalf("own frame echoed back: %v, want ErrAuth", err)
			}
		}},
		{"truncated", func(t *testing.T, init, resp *Conn, iw, rw *memConn) {
			frame := seal(t, init, iw, "cut short")
			for _, n := range []int{0, 2, headerLen, len(frame) - 1} {
				if _, err := open(resp, rw, frame[:n]); err == nil || errors.Is(err, ErrAuth) {
					t.Fatalf("frame cut to %d bytes: %v, want a read error", n, err)
				}
			}
			// A length prefix that cuts into the tag is an authentication
			// failure, not a short read.
			short := append([]byte(nil), frame...)
			binary.BigEndian.PutUint32(short, uint32(len(frame)-headerLen-1))
			if _, err := open(resp, rw, short[:len(short)-1]); !errors.Is(err, ErrAuth) {
				t.Fatalf("frame one tag byte short: %v, want ErrAuth", err)
			}
		}},
		{"over-budget", func(t *testing.T, init, resp *Conn, iw, rw *memConn) {
			// Outbound: refused before sealing, so the counters stay in
			// step and the channel stays usable.
			big := append(init.Frame(), make([]byte, int(init.budget)-tagLen+1)...)
			if _, err := init.Send(big); !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("send over budget: %v, want ErrFrameTooLarge", err)
			}
			if iw.out.Len() != 0 {
				t.Fatalf("%d bytes of a refused frame reached the wire", iw.out.Len())
			}
			fits := string(make([]byte, int(init.budget)-tagLen))
			if got, err := open(resp, rw, seal(t, init, iw, fits)); err != nil || got != fits {
				t.Fatalf("frame of exactly the budget after the refusal: %d bytes, %v", len(got), err)
			}
			// Inbound: the announcement is refused before anything is
			// allocated for it.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := open(resp, rw, []byte{0x20, 0x00, 0x00, 0x00, 0xAA}) // 512 MiB
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("512 MiB announcement: %v, want ErrFrameTooLarge", err)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
				t.Fatalf("%d bytes allocated refusing an announcement", grown)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			init, resp, iw, rw := keyedPair(t)
			tc.run(t, init, resp, iw, rw)
		})
	}
}

// TestFrameBuffersReused: steady traffic runs in the connection's two
// buffers, and one large frame does not stay pinned to it.
func TestFrameBuffersReused(t *testing.T) {
	init, resp, iw, rw := keyedPair(t)
	init.budget, resp.budget = 1<<20, 1<<20
	open(resp, rw, seal(t, init, iw, "warm"))
	allocs := testing.AllocsPerRun(100, func() {
		iw.out.Reset()
		if _, err := init.Send(append(init.Frame(), "steady"...)); err != nil {
			t.Fatal(err)
		}
		rw.in.Reset()
		rw.in.Write(iw.out.Bytes())
		if _, err := resp.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("one frame sent and received = %v allocations, want 0", allocs)
	}
	open(resp, rw, seal(t, init, iw, string(make([]byte, keepBuf+1))))
	open(resp, rw, seal(t, init, iw, "small again"))
	if cap(init.Frame()) > keepBuf || cap(resp.recvBuf) > keepBuf {
		t.Fatalf("buffers of %d and %d bytes kept after one large frame", cap(init.Frame()), cap(resp.recvBuf))
	}
}

// ---- handshake ---------------------------------------------------------

// testEnclave boots an enclave over image; equal images measure equal.
func testEnclave(t *testing.T, image string) *sgx.Enclave {
	t.Helper()
	signer, err := sgx.DefaultSigner()
	if err != nil {
		t.Fatal(err)
	}
	e, err := sgx.Create(simcfg.Default(), cycles.New(simcfg.CPUHz), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddPages([]byte(image)); err != nil {
		t.Fatal(err)
	}
	ss, err := signer.Sign(e.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Init(ss); err != nil {
		t.Fatal(err)
	}
	return e
}

// counting is an Attestor that counts what the handshake asks of it.
type counting struct {
	*sgx.Platform
	mu               sync.Mutex
	quotes, verifies int
}

func (c *counting) Quote(e *sgx.Enclave, rd []byte) (sgx.Quote, error) {
	c.mu.Lock()
	c.quotes++
	c.mu.Unlock()
	return c.Platform.Quote(e, rd)
}

func (c *counting) Verify(q sgx.Quote, m [32]byte) error {
	c.mu.Lock()
	c.verifies++
	c.mu.Unlock()
	return c.Platform.Verify(q, m)
}

// setup is one handshake about to run: both identities, what each end
// expects of the other, and the plane each believes it is on. The zero
// mutation of it succeeds; each negative case breaks one thing.
type setup struct {
	initPlane, respPlane Plane
	init, resp           Identity
	dialOrigin           string   // the responder origin the initiator expects
	expect               [32]byte // the responder measurement the initiator expects
	admit                func(origin string) (*[32]byte, error)
}

// configs are the two callers of the package: a gateway session (the
// initiator speaks for no enclave, nothing is demanded of it) and a
// fabric peer link (both ends attest).
var configs = []struct {
	name  string
	build func(t *testing.T, platform Attestor) *setup
}{
	{"session", func(t *testing.T, platform Attestor) *setup {
		plane := Plane{Purpose: Session, MaxFrame: 1 << 20}
		gw := testEnclave(t, "gateway image")
		return &setup{
			initPlane: plane, respPlane: plane,
			init:   Identity{Platform: platform},
			resp:   Identity{Platform: platform, Enclave: gw},
			expect: gw.Measurement(),
			admit:  func(string) (*[32]byte, error) { return nil, nil },
		}
	}},
	{"peer", func(t *testing.T, platform Attestor) *setup {
		plane := Plane{Purpose: Peer, MaxFrame: 16 << 20}
		a, b := testEnclave(t, "shard image"), testEnclave(t, "shard image")
		meas := a.Measurement()
		return &setup{
			initPlane: plane, respPlane: plane,
			init:       Identity{Platform: platform, Enclave: a, Origin: "shard-0"},
			resp:       Identity{Platform: platform, Enclave: b, Origin: "shard-1"},
			dialOrigin: "shard-1",
			expect:     b.Measurement(),
			admit: func(origin string) (*[32]byte, error) {
				if origin != "shard-0" {
					return nil, &RejectError{Status: "unknown-origin"}
				}
				return &meas, nil
			},
		}
	}},
}

// pipe runs the two ends of a handshake against each other; an end that
// fails closes its side, as serve and fabric do.
func pipe(t *testing.T, initiate, accept func(nc net.Conn) (*Conn, error)) (ic, rc *Conn, ierr, rerr error) {
	t.Helper()
	inc, rnc := net.Pipe()
	t.Cleanup(func() { inc.Close(); rnc.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		if rc, rerr = accept(rnc); rerr != nil {
			rnc.Close()
		}
	}()
	if ic, ierr = initiate(inc); ierr != nil {
		inc.Close()
	}
	<-done
	return
}

func (s *setup) run(t *testing.T) (ic, rc *Conn, ierr, rerr error) {
	t.Helper()
	return pipe(t,
		func(nc net.Conn) (*Conn, error) {
			return Initiate(nc, s.initPlane, s.init, s.dialOrigin, s.expect)
		},
		func(nc net.Conn) (*Conn, error) {
			return Accept(nc, s.respPlane, s.resp, s.admit)
		})
}

// rawInitiator plays an initiator by hand: it writes hello (any bytes)
// as one plaintext frame and returns the responder's plaintext answer.
func rawInitiator(hello []byte) func(net.Conn) (*Conn, error) {
	return func(nc net.Conn) (*Conn, error) {
		c := newConn(nc)
		if _, err := c.write(append(c.Frame(), hello...)); err != nil {
			return nil, err
		}
		_, err := c.expect(kindAttest)
		return nil, err
	}
}

func TestHandshake(t *testing.T) {
	otherPlatform := sgx.NewPlatformFromSeed([]byte("some other attestation service"))
	cases := []struct {
		name string
		// only restricts a case to one configuration ("" = both).
		only  string
		check func(t *testing.T, s *setup)
	}{
		{"established", "", func(t *testing.T, s *setup) {
			platform := s.init.Platform.(*counting)
			ic, rc, ierr, rerr := s.run(t)
			if ierr != nil || rerr != nil {
				t.Fatalf("initiator %v, responder %v", ierr, rerr)
			}
			mutual := s.init.Enclave != nil
			want := 1
			if mutual {
				want = 2
			}
			if platform.quotes != want || platform.verifies != want {
				t.Fatalf("%d quotes and %d verifications, want %d of each", platform.quotes, platform.verifies, want)
			}
			if ic.RemoteOrigin() != s.resp.Origin || rc.RemoteOrigin() != s.init.Origin {
				t.Fatalf("remote origins %q / %q", ic.RemoteOrigin(), rc.RemoteOrigin())
			}
			if ic.budget != s.initPlane.MaxFrame || rc.budget != s.respPlane.MaxFrame {
				t.Fatalf("budgets %d / %d after the handshake", ic.budget, rc.budget)
			}
			// The key both derived carries traffic both ways, continuing
			// the handshake's counters.
			go func() { ic.Send(append(ic.Frame(), "ping"...)) }()
			if got, err := rc.Recv(); err != nil || string(got) != "ping" {
				t.Fatalf("first request: %q, %v", got, err)
			}
			go func() { rc.Send(append(rc.Frame(), "pong"...)) }()
			if got, err := ic.Recv(); err != nil || string(got) != "pong" {
				t.Fatalf("first response: %q, %v", got, err)
			}
			if ic.send.ctr != 2 || rc.send.ctr != 2 {
				t.Fatalf("send counters %d / %d, want 2 / 2 (prove + ping, ready + pong)", ic.send.ctr, rc.send.ctr)
			}
		}},
		{"wrong platform", "", func(t *testing.T, s *setup) {
			s.init.Platform = otherPlatform
			if _, _, ierr, _ := s.run(t); !errors.Is(ierr, ErrHandshake) || !errors.Is(ierr, sgx.ErrQuoteForged) {
				t.Fatalf("initiator on another platform: %v, want ErrHandshake over ErrQuoteForged", ierr)
			}
		}},
		{"wrong measurement", "", func(t *testing.T, s *setup) {
			s.expect[0] ^= 0xFF
			if _, _, ierr, _ := s.run(t); !errors.Is(ierr, ErrHandshake) || !errors.Is(ierr, sgx.ErrBadMeasurement) {
				t.Fatalf("unexpected responder measurement: %v, want ErrHandshake over ErrBadMeasurement", ierr)
			}
		}},
		{"quote not bound to this transcript", "", func(t *testing.T, s *setup) {
			// The responder quotes a transcript naming itself; the
			// initiator dialled somebody else.
			s.dialOrigin = "somebody else"
			_, _, ierr, rerr := s.run(t)
			if !errors.Is(ierr, ErrHandshake) || errors.Is(ierr, sgx.ErrQuoteForged) || errors.Is(ierr, sgx.ErrBadMeasurement) {
				t.Fatalf("initiator: %v, want ErrHandshake for an unbound (but genuine) quote", ierr)
			}
			if rerr == nil {
				t.Fatal("responder established a channel the initiator refused")
			}
		}},
		{"session quote spliced into a peer handshake", "peer", func(t *testing.T, s *setup) {
			// A responder that is the right enclave, answering the right
			// hello — but with the quote it would issue for a client
			// session over the same keys, nonce and origins.
			splice := func(nc net.Conn) (*Conn, error) {
				c, priv, err := begin(nc)
				if err != nil {
					return nil, err
				}
				hello, err := c.expect(kindHello)
				if err != nil {
					return nil, err
				}
				pub := priv.PublicKey().Bytes()
				forSession := transcript(Session, true, hello.pub, pub, hello.nonce, hello.origin, s.resp.Origin)
				q, err := s.resp.Platform.Quote(s.resp.Enclave, forSession)
				if err != nil {
					return nil, err
				}
				if err := c.put(message{kind: kindAttest, pub: pub, quote: &q, demand: true}); err != nil {
					return nil, err
				}
				_, err = c.expect(kindProve)
				return nil, err
			}
			_, _, ierr, _ := pipe(t, func(nc net.Conn) (*Conn, error) {
				return Initiate(nc, s.initPlane, s.init, s.dialOrigin, s.expect)
			}, splice)
			if !errors.Is(ierr, ErrHandshake) || errors.Is(ierr, sgx.ErrQuoteForged) {
				t.Fatalf("spliced session quote: %v, want ErrHandshake for an unbound quote", ierr)
			}
		}},
		{"hello for the other plane", "", func(t *testing.T, s *setup) {
			s.initPlane.Purpose = 3 - s.respPlane.Purpose
			_, _, ierr, rerr := s.run(t)
			var rej *RejectError
			if !errors.As(ierr, &rej) || rej.Status != StatusPurpose {
				t.Fatalf("initiator: %v, want a %q refusal", ierr, StatusPurpose)
			}
			if !errors.Is(rerr, ErrHandshake) {
				t.Fatalf("responder: %v, want ErrHandshake", rerr)
			}
		}},
		{"unknown origin", "peer", func(t *testing.T, s *setup) {
			s.init.Origin = "shard-99"
			_, _, ierr, rerr := s.run(t)
			var rej *RejectError
			if !errors.As(ierr, &rej) || rej.Status != "unknown-origin" || !errors.Is(ierr, ErrHandshake) {
				t.Fatalf("initiator: %v, want an unknown-origin refusal that is an ErrHandshake", ierr)
			}
			if !errors.As(rerr, &rej) {
				t.Fatalf("responder: %v, want the admission's own error back", rerr)
			}
		}},
		{"missing initiator proof", "peer", func(t *testing.T, s *setup) {
			s.init.Enclave = nil // a gateway client dialling a peer listener
			_, _, ierr, rerr := s.run(t)
			if !errors.Is(rerr, ErrHandshake) {
				t.Fatalf("responder: %v, want ErrHandshake", rerr)
			}
			if !errors.Is(ierr, ErrHandshake) {
				t.Fatalf("initiator: %v, want ErrHandshake (no ready ever comes)", ierr)
			}
		}},
		{"initiator proves the wrong enclave", "peer", func(t *testing.T, s *setup) {
			s.init.Enclave = testEnclave(t, "some other image")
			if _, _, _, rerr := s.run(t); !errors.Is(rerr, ErrHandshake) || !errors.Is(rerr, sgx.ErrBadMeasurement) {
				t.Fatalf("responder: %v, want ErrHandshake over ErrBadMeasurement", rerr)
			}
		}},
		{"undemanded proof", "session", func(t *testing.T, s *setup) {
			// An initiator that proves itself where nothing was demanded
			// is off protocol: prove carries a quote exactly when asked.
			eager := func(nc net.Conn) (*Conn, error) {
				c, priv, err := begin(nc)
				if err != nil {
					return nil, err
				}
				hello := message{kind: kindHello, purpose: Session, pub: priv.PublicKey().Bytes(), nonce: []byte("0123456789abcdef")}
				if err := c.put(hello); err != nil {
					return nil, err
				}
				attest, err := c.expect(kindAttest)
				if err != nil {
					return nil, err
				}
				tr := transcript(Session, false, hello.pub, attest.pub, hello.nonce, "", "")
				if err := c.arm(priv, attest.pub, tr, true); err != nil {
					return nil, err
				}
				q, err := s.resp.Platform.Quote(s.resp.Enclave, digest(proveLabel, tr))
				if err != nil {
					return nil, err
				}
				if err := c.put(message{kind: kindProve, quote: &q}); err != nil {
					return nil, err
				}
				_, err = c.expect(kindReady)
				return nil, err
			}
			_, _, _, rerr := pipe(t, eager, func(nc net.Conn) (*Conn, error) {
				return Accept(nc, s.respPlane, s.resp, s.admit)
			})
			if !errors.Is(rerr, ErrHandshake) {
				t.Fatalf("responder: %v, want ErrHandshake", rerr)
			}
		}},
		{"unknown version byte", "", func(t *testing.T, s *setup) {
			hello := appendMessage(nil, message{kind: kindHello, purpose: s.respPlane.Purpose, pub: make([]byte, 32), nonce: make([]byte, 16)})
			hello[1] = Version + 1
			_, _, ierr, rerr := pipe(t, rawInitiator(hello), func(nc net.Conn) (*Conn, error) {
				return Accept(nc, s.respPlane, s.resp, s.admit)
			})
			if !errors.Is(rerr, ErrVersion) || !errors.Is(rerr, ErrHandshake) {
				t.Fatalf("responder: %v, want ErrVersion (an ErrHandshake)", rerr)
			}
			var rej *RejectError
			if !errors.As(ierr, &rej) || rej.Status != StatusVersion {
				t.Fatalf("initiator read %v, want a %q refusal", ierr, StatusVersion)
			}
		}},
		{"reject before attest", "", func(t *testing.T, s *setup) {
			// serve maps these three statuses onto ErrDraining,
			// ErrRecovering and ErrSessionLimit on both ends
			// (serve.TestHandshakeRefusalsAreTyped).
			for _, status := range []string{"draining", "recovering", "session-limit"} {
				platform := s.resp.Platform.(*counting)
				quotes := platform.quotes
				s.admit = func(string) (*[32]byte, error) { return nil, &RejectError{Status: status} }
				_, _, ierr, rerr := s.run(t)
				var irej, rrej *RejectError
				if !errors.As(ierr, &irej) || irej.Status != status || !errors.As(rerr, &rrej) || rrej.Status != status {
					t.Fatalf("%s: initiator %v, responder %v, want the refusal on both ends", status, ierr, rerr)
				}
				if platform.quotes != quotes {
					t.Fatalf("%s: the responder quoted for a hello it refused", status)
				}
			}
		}},
		{"no enclave to attest", "", func(t *testing.T, s *setup) {
			s.resp.Enclave = nil // the world was killed under its listener
			_, _, ierr, rerr := s.run(t)
			if !errors.Is(rerr, ErrHandshake) || !errors.Is(ierr, ErrHandshake) {
				t.Fatalf("initiator %v, responder %v, want ErrHandshake on both ends", ierr, rerr)
			}
		}},
		{"oversized hello", "", func(t *testing.T, s *setup) {
			// 16 MiB is a legal sealed peer frame; before attestation it
			// is refused on its announcement, on either plane.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, _, rerr := pipe(t, func(nc net.Conn) (*Conn, error) {
				_, err := nc.Write([]byte{0x01, 0x00, 0x00, 0x00, 0xAA})
				return nil, err
			}, func(nc net.Conn) (*Conn, error) {
				return Accept(nc, s.respPlane, s.resp, s.admit)
			})
			runtime.ReadMemStats(&after)
			if !errors.Is(rerr, ErrHandshake) || !errors.Is(rerr, ErrFrameTooLarge) {
				t.Fatalf("responder: %v, want ErrHandshake over ErrFrameTooLarge", rerr)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
				t.Fatalf("%d bytes allocated refusing a 16 MiB hello", grown)
			}
		}},
	}
	for _, cfg := range configs {
		for _, tc := range cases {
			if tc.only != "" && tc.only != cfg.name {
				continue
			}
			t.Run(cfg.name+"/"+tc.name, func(t *testing.T) {
				platform := &counting{Platform: sgx.NewPlatformFromSeed([]byte("channel test platform"))}
				tc.check(t, cfg.build(t, platform))
			})
		}
	}
}

// ---- message codec -----------------------------------------------------

func codecSeeds() []message {
	q := &sgx.Quote{ReportData: []byte("report data")}
	q.Measurement[0], q.MRSigner[1], q.MAC[2] = 1, 2, 3
	return []message{
		{kind: kindHello, purpose: Session, pub: make([]byte, 32), nonce: make([]byte, 16)},
		{kind: kindHello, purpose: Peer, pub: make([]byte, 32), nonce: make([]byte, 16), origin: "shard-3/replica-1"},
		{kind: kindAttest, pub: make([]byte, 32), quote: q},
		{kind: kindAttest, pub: make([]byte, 32), quote: q, demand: true},
		{kind: kindReject, status: "draining"},
		{kind: kindProve},
		{kind: kindProve, quote: q},
		{kind: kindReady},
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	for _, want := range codecSeeds() {
		enc := appendMessage(nil, want)
		got, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("kind %d: %v", want.kind, err)
		}
		if !bytes.Equal(appendMessage(nil, got), enc) {
			t.Fatalf("kind %d: decoded %+v re-encodes differently", want.kind, got)
		}
		// Every kind has exactly its own fields: any other kind byte in
		// front of the same body is refused or is that other kind — never
		// this message under a wrong name.
		for k := msgKind(0); k < 8; k++ {
			if k == want.kind {
				continue
			}
			other := append([]byte{byte(k)}, enc[1:]...)
			if m, err := decodeMessage(other); err == nil && m.kind != k {
				t.Fatalf("kind %d read back as %d", k, m.kind)
			}
		}
	}
	for _, bad := range [][]byte{nil, {0}, {byte(kindHello)}, {byte(kindHello), Version}, {byte(kindReady), 0xFF}, appendMessage(nil, message{kind: kindProve})[:2], {9, 0x06, 0}} {
		if _, err := decodeMessage(bad); !errors.Is(err, ErrHandshake) {
			t.Fatalf("decode %x: %v, want ErrHandshake", bad, err)
		}
	}
}

// FuzzHandshakeMessage: the decoder of everything an unauthenticated
// peer can say returns a typed error or a message that re-encodes to
// what it decodes from, and never panics.
func FuzzHandshakeMessage(f *testing.F) {
	for _, m := range codecSeeds() {
		f.Add(appendMessage(nil, m))
	}
	f.Add([]byte{byte(kindHello), Version + 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMessage(data)
		if err != nil {
			if !errors.Is(err, ErrHandshake) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		again, err := decodeMessage(appendMessage(nil, m))
		if err != nil {
			t.Fatalf("re-encoding of %+v does not decode: %v", m, err)
		}
		if !bytes.Equal(appendMessage(nil, again), appendMessage(nil, m)) {
			t.Fatalf("%+v is not a fixed point of the codec", m)
		}
	})
}
