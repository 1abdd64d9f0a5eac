package world

import (
	"fmt"
	"sort"
	"strings"

	"montsalvat/internal/ring"
	"montsalvat/internal/shim"
)

// TransitionProfile is a per-routine transition count, the analog of an
// sgx-perf report (the tool the paper cites for transition costs).
type TransitionProfile struct {
	// Name is the edge-routine symbol (or a runtime-internal label).
	Name string
	// Direction is "ecall" or "ocall".
	Direction string
	// Count is the number of completed transitions.
	Count uint64
}

// TransitionReport returns per-routine transition counts sorted by count
// (descending) — which proxies are chattiest, where the shim relays I/O,
// and how often the GC helpers cross the boundary. Identifying such hot
// boundaries is how a developer decides what to annotate.
func (w *World) TransitionReport() []TransitionProfile {
	if w.enclave == nil {
		return nil
	}
	stats := w.enclave.Stats()
	var out []TransitionProfile
	for id, count := range stats.EcallsByID {
		out = append(out, TransitionProfile{Name: w.routineName(id), Direction: "ecall", Count: count})
	}
	for id, count := range stats.OcallsByID {
		out = append(out, TransitionProfile{Name: w.routineName(id), Direction: "ocall", Count: count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// RenderTransitionReport formats the report as aligned text.
func (w *World) RenderTransitionReport() string {
	profiles := w.TransitionReport()
	if len(profiles) == 0 {
		return "no enclave transitions\n"
	}
	var sb strings.Builder
	sb.WriteString("transitions by routine (sgx-perf style):\n")
	for _, p := range profiles {
		fmt.Fprintf(&sb, "  %-6s %-52s %8d\n", p.Direction, p.Name, p.Count)
	}
	return sb.String()
}

// DispatchStats aggregates the boundary dispatch layer's counters: how
// cross-runtime calls were routed (full transitions, rings) and how
// effectively result-independent calls were coalesced into batched
// frames.
type DispatchStats struct {
	// FullCalls is the number of calls routed through full transitions.
	FullCalls uint64
	// SwitchlessCalls were handed across on a lane (Lane), either way.
	// FallbackCalls is always 0 (the mailbox route is gone), but
	// benchmark/layers.go reads it; remove with the next benchmark PR.
	SwitchlessCalls uint64
	FallbackCalls   uint64
	// BatchFlushes is the number of batched transitions performed.
	BatchFlushes uint64
	// BatchedCalls is the total number of calls those flushes carried.
	BatchedCalls uint64
	// PendingCalls is the number of calls still queued (0 after Close).
	PendingCalls int
	// AvgBatchSize is BatchedCalls / BatchFlushes (0 when no flushes).
	AvgBatchSize float64
	// RingCalls crossed through the zero-copy ring data plane;
	// RingFallbacks wanted a ring but found it busy; RingOversize
	// exceeded the slot capacity and took the frame path.
	RingCalls     uint64
	RingFallbacks uint64
	RingOversize  uint64
	// RingSubmits/RingDoorbells/RingStalls/RingSealedBytes aggregate the
	// ring groups' activity counters (both directions); RingOverflowBytes
	// is response bytes that crossed as plain bounce buffers.
	RingSubmits       uint64
	RingDoorbells     uint64
	RingStalls        uint64
	RingSealedBytes   uint64
	RingOverflowBytes uint64
	// MEECopiedBytes is the total bytes charged at the MEE per-byte copy
	// rate on the frame path (argument/result buffers and batch frames)
	// — the "copies" component of the dispatch cycle breakdown, which
	// the ring path converts into RingSealedBytes crypto work.
	MEECopiedBytes uint64
}

// DispatchStats snapshots the boundary dispatch counters.
func (w *World) DispatchStats() DispatchStats {
	var ds DispatchStats
	for _, g := range []*ring.Group{w.erings, w.orings} {
		gs := g.Stats() // nil-safe: zero for a missing group
		ds.RingSubmits += gs.Submits
		ds.RingDoorbells += gs.Doorbells
		ds.RingStalls += gs.Stalls
		ds.RingSealedBytes += gs.SealedBytes
		ds.RingOverflowBytes += gs.OverflowBytes
	}
	ds.MEECopiedBytes = w.meeBytes.Load()
	for _, rt := range []*Runtime{w.untrusted, w.trusted} {
		if rt == nil {
			continue
		}
		ds.FullCalls += rt.fullCalls.Load()
		ds.SwitchlessCalls += rt.laneCalls.Load()
		ds.RingCalls += rt.ringCalls.Load()
		ds.RingFallbacks += rt.ringFallbacks.Load()
		ds.RingOversize += rt.ringOversize.Load()
		if rt.queue == nil {
			continue
		}
		qs := rt.queue.Stats()
		ds.BatchFlushes += qs.Flushes
		ds.BatchedCalls += qs.BatchedCalls
		ds.PendingCalls += rt.queue.Len()
	}
	if ds.BatchFlushes > 0 {
		ds.AvgBatchSize = float64(ds.BatchedCalls) / float64(ds.BatchFlushes)
	}
	return ds
}

// fixedRoutines labels the transition ids the runtime and the shim
// reserve.
var fixedRoutines = map[int]string{
	idGCHelper:        "<gc-helper scan>",
	idGCSweep:         "<gc-helper mirror release>",
	idMain:            "<main>",
	idExec:            "<harness exec>",
	idBatch:           "<batched relay frame>",
	shim.OcallWriteAt: "shim:write",
	shim.OcallAppend:  "shim:append",
	shim.OcallReadAt:  "shim:read",
	shim.OcallSize:    "shim:size",
	shim.OcallRemove:  "shim:remove",
	shim.OcallList:    "shim:list",
}

// routineName resolves a transition id to its edge-routine symbol or a
// runtime-internal label.
func (w *World) routineName(id int) string {
	if name, ok := fixedRoutines[id]; ok {
		return name
	}
	if w.iface != nil {
		for _, r := range append(w.iface.Ecalls(), w.iface.Ocalls()...) {
			if r.ID == id {
				return r.Name
			}
		}
	}
	return fmt.Sprintf("<routine %d>", id)
}
