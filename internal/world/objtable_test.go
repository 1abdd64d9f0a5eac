package world

import (
	"math/rand"
	"testing"

	"montsalvat/internal/heap"
)

// TestObjTableMatchesMap drives the open-addressing object table and a
// map with the same random adopts, retains and releases, over hashes
// chosen so that probe runs collide, wrap around the slot array and
// grow it, and checks after every step that both hold the same entries.
func TestObjTableMatchesMap(t *testing.T) {
	type entry struct {
		handle heap.Handle
		refs   int
	}
	rng := rand.New(rand.NewSource(1))
	tbl := newObjTable()
	model := map[int64]entry{}
	// Three shards; within each, 20 hashes (more than three quarters of
	// the initial 16 slots) whose homes crowd the first and last slots,
	// negative hashes and hash 0 included.
	var hashes []int64
	for _, shard := range []int64{0, 5, 15} {
		for _, k := range []int64{0, 1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 47, 48, 64, 100, 200, 1000, -1, -2, -16} {
			hashes = append(hashes, k*tableShards+shard)
		}
	}
	for step := 0; step < 200000; step++ {
		h := hashes[rng.Intn(len(hashes))]
		m, inModel := model[h]
		switch op := rng.Intn(3); {
		case op == 0:
			fresh := heap.Handle(rng.Intn(1000) + 1)
			kept, dup := tbl.adopt(h, fresh)
			if inModel {
				m.refs++
				want := heap.Handle(0)
				if fresh != m.handle {
					want = fresh
				}
				if kept != m.handle || dup != want {
					t.Fatalf("step %d: adopt(%d) on an entry = (%d, %d), want (%d, %d)", step, h, kept, dup, m.handle, want)
				}
			} else {
				m = entry{handle: fresh, refs: 1}
				if kept != fresh || dup != 0 {
					t.Fatalf("step %d: adopt(%d) fresh = (%d, %d), want (%d, 0)", step, h, kept, dup, fresh)
				}
			}
			model[h] = m
		case op == 1:
			got, ok := tbl.retain(h)
			if ok != inModel || (ok && got != m.handle) {
				t.Fatalf("step %d: retain(%d) = (%d, %v), model has %v %v", step, h, got, ok, m, inModel)
			}
			if ok {
				m.refs++
				model[h] = m
			}
		default:
			drop := tbl.release(h)
			want := heap.Handle(0)
			if inModel {
				if m.refs--; m.refs == 0 {
					want = m.handle
					delete(model, h)
				} else {
					model[h] = m
				}
			}
			if drop != want {
				t.Fatalf("step %d: release(%d) dropped %d, want %d", step, h, drop, want)
			}
		}
		if tbl.len() != len(model) {
			t.Fatalf("step %d: table holds %d entries, model %d", step, tbl.len(), len(model))
		}
		for _, k := range hashes {
			s := tbl.shard(k)
			i := s.find(k)
			m, ok := model[k]
			if (i >= 0) != ok || (ok && (s.slots[i].handle != m.handle || s.slots[i].refs != m.refs)) {
				t.Fatalf("step %d: hash %d in table at %d, model %v %v", step, k, i, m, ok)
			}
		}
	}
}
