package fabric

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"montsalvat/internal/serve"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// TestTableDeterministicAndBalanced: the ring is a pure function of the
// shard IDs, and vnodes keep the key distribution from collapsing onto
// one shard.
func TestTableDeterministicAndBalanced(t *testing.T) {
	shards := []ShardInfo{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	a := NewTable(1, shards)
	b := NewTable(9, []ShardInfo{{ID: 3, Addr: "elsewhere"}, {ID: 1}, {ID: 0}, {ID: 2}})
	counts := make(map[int]int)
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("user:%05d", i)
		oa, ob := a.Owner(key), b.Owner(key)
		if oa != ob {
			t.Fatalf("ring not deterministic: key %q -> %d vs %d", key, oa, ob)
		}
		counts[oa]++
	}
	for id := 0; id < 4; id++ {
		if counts[id] < 4096/4/4 {
			t.Fatalf("shard %d owns only %d of 4096 keys: %v", id, counts[id], counts)
		}
	}
	if (Table{}).Owner("k") != -1 {
		t.Fatal("empty table should own nothing")
	}
}

// TestFabricRoutingAndRedirect boots a 4-shard fabric, round-trips a
// keyspace through the Router, and verifies that a deliberately
// misrouted direct session gets the typed WrongShardError redirect
// carrying the true owner.
func TestFabricRoutingAndRedirect(t *testing.T) {
	f, err := New(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	client := f.Client(RouterConfig{})
	defer client.Close()
	const n = 96
	for i := 0; i < n; i++ {
		if err := client.Put(fmt.Sprintf("user:%04d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := client.Get(fmt.Sprintf("user:%04d", i))
		if err != nil || !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d = (%q, %v, %v)", i, v, ok, err)
		}
	}
	if _, ok, err := client.Get("user:missing"); err != nil || ok {
		t.Fatalf("missing key = (%v, %v), want absent", ok, err)
	}
	if st := client.Stats(); st.Redirects != 0 {
		t.Fatalf("well-routed client took %d redirects", st.Redirects)
	}

	// A client that ignores the ring and sends everything to shard 0
	// must be redirected to the true owner of a foreign key.
	tbl := f.Table()
	var foreign string
	for i := 0; ; i++ {
		foreign = fmt.Sprintf("foreign:%04d", i)
		if tbl.Owner(foreign) != 0 {
			break
		}
	}
	info, _ := tbl.Shard(0)
	c, err := serve.Dial(info.Addr, serve.ClientConfig{Platform: f.Platform(), Measurement: info.Measurement})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Bind("kv")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Call(h, "put", wire.Str(foreign), wire.Str("x"))
	var ws *serve.WrongShardError
	if !errors.As(err, &ws) {
		t.Fatalf("misrouted put: %v, want WrongShardError", err)
	}
	if ws.Owner != tbl.Owner(foreign) || ws.Epoch != tbl.Epoch {
		t.Fatalf("redirect = owner %d epoch %d, want owner %d epoch %d", ws.Owner, ws.Epoch, tbl.Owner(foreign), tbl.Epoch)
	}
	// The rejected write must not have landed anywhere.
	if _, ok, err := client.Get(foreign); err != nil || ok {
		t.Fatalf("rejected write visible: (%v, %v)", ok, err)
	}
}

// TestReplicaHostRefusesHandshakes: a standby's peer host admits its
// own shard's primary and no one else. A sibling shard's primary — an
// origin the host has no measurement for — is refused during the
// handshake, before any operation, and a dialer expecting the wrong
// measurement refuses the channel itself.
func TestReplicaHostRefusesHandshakes(t *testing.T) {
	f, err := New(Options{Shards: 2, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	f.mu.Lock()
	standby := f.reps[0][0]
	f.mu.Unlock()
	sibling, err := f.node(1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DialPeer(
		standby.ln.Addr().String(),
		PeerIdentity{Platform: f.Platform(), Enclave: sibling.w.Enclave(), Origin: ShardOrigin(1)},
		replicaOrigin(0, 0),
		standby.measurement(),
	)
	if !errors.Is(err, ErrPeerHandshake) {
		t.Fatalf("sibling shard's channel to shard 0's standby: %v, want ErrPeerHandshake", err)
	}

	primary, err := f.node(0)
	if err != nil {
		t.Fatal(err)
	}
	var wrong [32]byte
	wrong[0] = 0xff
	_, err = DialPeer(
		standby.ln.Addr().String(),
		PeerIdentity{Platform: f.Platform(), Enclave: primary.w.Enclave(), Origin: ShardOrigin(0)},
		replicaOrigin(0, 0),
		wrong,
	)
	if !errors.Is(err, ErrPeerHandshake) {
		t.Fatalf("wrong measurement: %v, want ErrPeerHandshake", err)
	}
}

// TestFabricFailover is the failover drill: concurrent load, primary
// killed mid-stream, standby promoted — every acknowledged write must
// be readable afterwards, and the routing table must have moved on.
func TestFabricFailover(t *testing.T) {
	f, err := New(Options{Shards: 2, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const (
		writers  = 4
		perPhase = 24
	)
	var ackedMu sync.Mutex
	acked := map[string]string{}
	load := func(phase int) {
		var wg sync.WaitGroup
		for wr := 0; wr < writers; wr++ {
			wg.Add(1)
			go func(wr int) {
				defer wg.Done()
				client := f.Client(RouterConfig{})
				defer client.Close()
				for i := 0; i < perPhase; i++ {
					k := fmt.Sprintf("p%d:w%d:k%04d", phase, wr, i)
					v := fmt.Sprintf("v%d-%d-%d", phase, wr, i)
					if err := client.Put(k, v); err != nil {
						continue // unacked writes may fail around the kill; they carry no promise
					}
					ackedMu.Lock()
					acked[k] = v
					ackedMu.Unlock()
				}
			}(wr)
		}
		wg.Wait()
	}

	load(1)
	if err := f.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	load(2) // these writes live in the WAL tail past the checkpoint

	epochBefore := f.Table().Epoch
	exp, err := f.KillShard(1)
	if err != nil {
		t.Fatal(err)
	}
	load(3) // shard 1's keys fail while it is dark; shard 0 keeps serving
	if err := f.Promote(1, exp); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if got := f.Table().Epoch; got <= epochBefore {
		t.Fatalf("epoch did not advance on promotion: %d -> %d", epochBefore, got)
	}
	load(4) // the promoted replica takes writes

	verify := f.Client(RouterConfig{})
	defer verify.Close()
	ackedMu.Lock()
	defer ackedMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no writes were acked")
	}
	for k, want := range acked {
		v, ok, err := verify.Get(k)
		if err != nil || !ok || v != want {
			t.Fatalf("acked write lost: %q = (%q, %v, %v), want %q", k, v, ok, err, want)
		}
	}
	st := f.Stats()
	if st.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", st.Promotions)
	}
	if st.ShipRounds == 0 || st.ShipBytes == 0 {
		t.Fatalf("no shipping recorded: %+v", st)
	}
}

// TestDoubleFailover: with two standbys, a promoted primary ships to the
// one that survives, so its acks are replicated and a second failover
// keeps every acked write. Each promotion opens one channel per
// surviving standby. A promoted primary used to ship to no one: it
// acked alone, and the second promotion was refused as stale.
func TestDoubleFailover(t *testing.T) {
	fleet := telemetry.NewFleet(telemetry.Options{})
	f, err := New(Options{Shards: 1, Replicas: 2, Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	client := f.Client(RouterConfig{})
	defer client.Close()
	acked := map[string]string{}
	handshakes := []uint64{f.Stats().PeerHandshakes}
	for round := 0; round < 3; round++ {
		if round > 0 {
			exp, err := f.KillShard(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Promote(0, exp); err != nil {
				t.Fatalf("promotion %d: %v", round, err)
			}
			handshakes = append(handshakes, f.Stats().PeerHandshakes)
		}
		for i := 0; i < 10; i++ {
			k, v := fmt.Sprintf("r%d:%d", round, i), fmt.Sprintf("v%d", i)
			if err := client.Put(k, v); err != nil {
				t.Fatalf("put %q: %v", k, err)
			}
			acked[k] = v
		}
	}
	for k, want := range acked {
		v, ok, err := client.Get(k)
		if err != nil || !ok || v != want {
			t.Fatalf("acked write lost: %q = (%q, %v, %v), want %q", k, v, ok, err, want)
		}
	}
	if want := []uint64{2, 3, 3}; fmt.Sprint(handshakes) != fmt.Sprint(want) {
		t.Fatalf("peer handshakes after boot and each promotion = %v, want %v", handshakes, want)
	}
	if got := fleet.Telemetry().Registry().Snapshot().Counters["montsalvat_fabric_peer_handshakes_total"]; got != 3 {
		t.Fatalf("montsalvat_fabric_peer_handshakes_total = %d, want 3", got)
	}
}

// TestStalePromotionRejected manufactures the rollback scenario: the
// replica stops receiving shipments, the primary acknowledges more
// writes and checkpoints (bumping its counter), then dies. Promoting
// the stale replica must be refused.
func TestStalePromotionRejected(t *testing.T) {
	f, err := New(Options{Shards: 1, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	client := f.Client(RouterConfig{})
	defer client.Close()
	for i := 0; i < 8; i++ {
		if err := client.Put(fmt.Sprintf("pre:%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	// Replication silently stops; the primary keeps acking and seals a
	// fresh checkpoint lineage the replica never sees.
	if err := f.PauseReplication(0, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := client.Put(fmt.Sprintf("post:%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Checkpoint(0); err != nil {
		t.Fatal(err)
	}

	exp, err := f.KillShard(0)
	if err != nil {
		t.Fatal(err)
	}
	err = f.Promote(0, exp)
	if !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("stale promotion: %v, want ErrStaleReplica", err)
	}
	var stale *StaleReplicaError
	if !errors.As(err, &stale) {
		t.Fatalf("stale promotion error is not typed: %v", err)
	}
	if stale.HaveLSN >= stale.WantLSN && stale.HaveStamp >= stale.WantStamp {
		t.Fatalf("rejection carries non-stale positions: %+v", stale)
	}
	if st := f.Stats(); st.StalePromotionsRejected != 1 || st.Promotions != 0 {
		t.Fatalf("stats = %+v, want 1 stale rejection, 0 promotions", st)
	}
}

// TestFabricPausedReplicaSkipped pins what a pause means on the one ack
// path: a paused replica is skipped by every round — ship and watermark
// alike — so acks keep leaving with no timer or fallback involved, and
// the replica they left behind is stale at promotion. Resuming before
// the kill instead lets the next put's round ship everything the replica
// missed, and the promotion is healthy.
func TestFabricPausedReplicaSkipped(t *testing.T) {
	for _, resume := range []bool{false, true} {
		name := "stale at promotion"
		if resume {
			name = "resumed catches up"
		}
		t.Run(name, func(t *testing.T) {
			f, err := New(Options{Shards: 1, Replicas: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			client := f.Client(RouterConfig{})
			defer client.Close()
			acked := map[string]string{}
			put := func(k string) {
				t.Helper()
				if err := client.Put(k, "v-"+k); err != nil {
					t.Fatalf("put %q: %v", k, err)
				}
				acked[k] = "v-" + k
			}
			for i := 0; i < 4; i++ {
				put(fmt.Sprintf("pre:%d", i))
			}
			if err := f.PauseReplication(0, true); err != nil {
				t.Fatal(err)
			}
			rounds := f.Stats().ShipRounds
			for i := 0; i < 4; i++ {
				put(fmt.Sprintf("stall:%d", i)) // must still ack
			}
			if got := f.Stats().ShipRounds; got != rounds {
				t.Fatalf("%d ship rounds reached the paused replica", got-rounds)
			}
			if resume {
				if err := f.PauseReplication(0, false); err != nil {
					t.Fatal(err)
				}
				put("resumed")
			}

			exp, err := f.KillShard(0)
			if err != nil {
				t.Fatal(err)
			}
			err = f.Promote(0, exp)
			if !resume {
				var stale *StaleReplicaError
				if !errors.As(err, &stale) || stale.HaveLSN >= stale.WantLSN {
					t.Fatalf("promotion of a skipped replica: %v, want StaleReplicaError on the LSN", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("promote after resume: %v", err)
			}
			for k, want := range acked {
				v, ok, err := client.Get(k)
				if err != nil || !ok || v != want {
					t.Fatalf("acked write lost: %q = (%q, %v, %v), want %q", k, v, ok, err, want)
				}
			}
		})
	}
}

// TestFabricGroupCommitStalePromotionRejected keeps the rollback
// defense intact with writes in flight: replication pauses, the primary
// keeps acking and seals a checkpoint lineage the replica never sees,
// then dies with puts still mid-round. Promoting the stale replica must
// be refused with the typed error — the acked position in the
// expectation includes every write acked while the replica was skipped.
func TestFabricGroupCommitStalePromotionRejected(t *testing.T) {
	f, err := New(Options{Shards: 1, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	client := f.Client(RouterConfig{})
	defer client.Close()
	for i := 0; i < 6; i++ {
		if err := client.Put(fmt.Sprintf("pre:%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	if err := f.PauseReplication(0, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := client.Put(fmt.Sprintf("post:%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Checkpoint(0); err != nil {
		t.Fatal(err)
	}

	// Kill with background writers still putting. Their acks either
	// completed (and are part of the expectation) or fail — never
	// silently dropped.
	var wg sync.WaitGroup
	for wr := 0; wr < 2; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			c := f.Client(RouterConfig{})
			defer c.Close()
			for i := 0; i < 16; i++ {
				_ = c.Put(fmt.Sprintf("inflight:%d:%d", wr, i), "v")
			}
		}(wr)
	}
	exp, err := f.KillShard(0)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	err = f.Promote(0, exp)
	if !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("stale promotion: %v, want ErrStaleReplica", err)
	}
	var stale *StaleReplicaError
	if !errors.As(err, &stale) {
		t.Fatalf("stale promotion error is not typed: %v", err)
	}
	if st := f.Stats(); st.StalePromotionsRejected != 1 || st.Promotions != 0 {
		t.Fatalf("stats = %+v, want 1 stale rejection, 0 promotions", st)
	}
}

// TestUnshippedTailDoesNotBlockPromotion: a put that was appended but
// whose ship failed was never acked, so the promotion expectation must
// not quote it — the replica, which holds every acked write, is healthy
// and must be promoted. (Quoting the manager's last appended LSN here
// refused it with StaleReplicaError.)
func TestUnshippedTailDoesNotBlockPromotion(t *testing.T) {
	f, err := New(Options{Shards: 1, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	client := f.Client(RouterConfig{})
	defer client.Close()
	for i := 0; i < 4; i++ {
		if err := client.Put(fmt.Sprintf("acked:%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// The replication channel dies under the primary: the next put is
	// appended, its round fails, and the ack is withheld.
	n, err := f.node(0)
	if err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.shippers[0].close()
	n.mu.Unlock()
	if err := client.Put("unshipped", "v"); err == nil {
		t.Fatal("put acked although its ship failed")
	}
	last := n.manager().Stats().LastLSN
	n.mu.Lock()
	acked := n.ackedHigh
	n.mu.Unlock()
	if last <= acked {
		t.Fatalf("no appended-but-unacked tail: last LSN %d, acked %d", last, acked)
	}

	exp, err := f.KillShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(0, exp); err != nil {
		t.Fatalf("healthy replica refused over an unacked tail: %v", err)
	}
	for i := 0; i < 4; i++ {
		if v, ok, err := client.Get(fmt.Sprintf("acked:%d", i)); err != nil || !ok || v != "v" {
			t.Fatalf("acked write lost: acked:%d = (%q, %v, %v)", i, v, ok, err)
		}
	}
	if _, ok, err := client.Get("unshipped"); err != nil || ok {
		t.Fatalf("unacked write surfaced on the successor: (%v, %v)", ok, err)
	}
}

// TestFabricTracePropagation follows one trace ID across Worlds: a
// routed put starts a root span on the router, the owning shard's
// gateway continues it, and the put's ship round carries it to both
// replicas — so the fleet dump must hold spans from router, shard and
// replica under one TraceID, three of them off the router, and every
// span in it must name the node that recorded it. The round
// is a commit-leader span that parents its ship spans. Booting 2 shards
// with 2 standbys each opens 4 attested peer channels.
func TestFabricTracePropagation(t *testing.T) {
	fleet := telemetry.NewFleet(telemetry.Options{TraceSampleRate: 1, TraceBuffer: 4096, EventBuffer: 1024})
	f, err := New(Options{Shards: 2, Replicas: 2, Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.Stats().PeerHandshakes; got != 4 {
		t.Fatalf("peer handshakes after booting 2x2 = %d, want 4", got)
	}
	if got := fleet.Telemetry().Registry().Snapshot().Counters["montsalvat_fabric_peer_handshakes_total"]; got != 4 {
		t.Fatalf("montsalvat_fabric_peer_handshakes_total = %d, want 4", got)
	}

	client := f.Client(RouterConfig{})
	defer client.Close()
	for i := 0; i < 16; i++ {
		if err := client.Put(fmt.Sprintf("trace:%04d", i), "v"); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// Group spans by trace and find one that crossed Worlds end to end:
	// router root, shard dispatch, replica ship-apply.
	byTrace := map[uint64]map[string]bool{}
	names := map[uint64]map[string]bool{}
	leaders := map[uint64]bool{}
	spans := fleet.Telemetry().Tracer().Dump()
	for _, sp := range spans {
		if sp.Node == "" {
			t.Errorf("span %q (trace %d, parent %d) carries no node", sp.Name, sp.TraceID, sp.ParentID)
		}
		if byTrace[sp.TraceID] == nil {
			byTrace[sp.TraceID] = map[string]bool{}
			names[sp.TraceID] = map[string]bool{}
		}
		byTrace[sp.TraceID][sp.Node] = true
		names[sp.TraceID][sp.Name] = true
		if sp.Name == "commit-leader" {
			leaders[sp.SpanID] = true
		}
	}
	var full uint64
	for id, nodes := range byTrace {
		hasRouter, hasShard, hasReplica := false, false, false
		for n := range nodes {
			switch {
			case n == "router":
				hasRouter = true
			case strings.Contains(n, "/replica-"):
				hasReplica = true
			case strings.HasPrefix(n, "shard-"):
				hasShard = true
			}
		}
		if hasRouter && hasShard && hasReplica {
			full = id
			break
		}
	}
	if full == 0 {
		t.Fatalf("no trace spans router+shard+replica; traces seen: %v", byTrace)
	}
	if !names[full]["ship-apply"] {
		t.Fatalf("cross-World trace %d has no replica ship-apply span: %v", full, names[full])
	}
	widest := 0
	for _, nodes := range byTrace {
		n := 0
		for node := range nodes {
			if node != "router" {
				n++
			}
		}
		widest = max(widest, n)
	}
	if widest < 3 {
		t.Fatalf("no trace spans 3 non-router nodes (widest covers %d): %v", widest, byTrace)
	}
	parented := 0
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "ship ") && leaders[sp.ParentID] {
			parented++
		}
	}
	if parented == 0 {
		t.Fatalf("%d commit-leader spans, none parents a ship span", len(leaders))
	}
}

// TestFabricEventTimeline kills a primary and promotes its replica,
// then checks the shared journal reconstructs the failover in the
// contract order: kill, promote-begin, promote-commit, epoch-bump,
// each with a strictly larger Seq than the previous step.
func TestFabricEventTimeline(t *testing.T) {
	fleet := telemetry.NewFleet(telemetry.Options{EventBuffer: 4096})
	f, err := New(Options{Shards: 2, Replicas: 1, Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	client := f.Client(RouterConfig{})
	defer client.Close()
	for i := 0; i < 16; i++ {
		if err := client.Put(fmt.Sprintf("tl:%04d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	exp, err := f.KillShard(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(1, exp); err != nil {
		t.Fatal(err)
	}

	events := fleet.Telemetry().Events().Dump()
	seq := func(typ telemetry.EventType, after uint64) uint64 {
		for _, ev := range events {
			if ev.Type == typ && ev.Seq > after && ev.Node == ShardOrigin(1) {
				return ev.Seq
			}
		}
		// Epoch bumps are fabric-scoped, not shard-scoped.
		for _, ev := range events {
			if ev.Type == typ && ev.Seq > after {
				return ev.Seq
			}
		}
		t.Fatalf("journal has no %s event after seq %d: %+v", typ, after, events)
		return 0
	}
	kill := seq(telemetry.EventKill, 0)
	begin := seq(telemetry.EventPromoteBegin, kill)
	commit := seq(telemetry.EventPromoteCommit, begin)
	bump := seq(telemetry.EventEpochBump, commit)
	if !(kill < begin && begin < commit && commit < bump) {
		t.Fatalf("failover timeline out of order: kill %d, begin %d, commit %d, bump %d", kill, begin, commit, bump)
	}

	// The journal also carried replication traffic for the load phase.
	ships := 0
	for _, ev := range events {
		if ev.Type == telemetry.EventShip {
			ships++
		}
	}
	if ships == 0 {
		t.Fatal("journal recorded no ship events despite replicated writes")
	}
}
