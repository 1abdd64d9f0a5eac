package world_test

import (
	"runtime"
	"sync"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/demo"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// TestBatchFlushRunsEachCallOnceAfterRingClose: the rings close while a
// flush's second of three void calls runs on them. The flush sends only
// the third by the frame path, so each call runs exactly once, and the
// calls that rode count as ring calls.
func TestBatchFlushRunsEachCallOnceAfterRingClose(t *testing.T) {
	var w *world.World
	var mu sync.Mutex
	runs := map[string]int{}
	entered := make(chan struct{})
	str := []classmodel.Param{{Name: "s", Kind: wire.KindString}}
	null := func(classmodel.Env, wire.Value, []wire.Value) (wire.Value, error) { return wire.Null(), nil }
	// Caller's reach makes Counter and its note reachable from the
	// untrusted image.
	counter := classmodel.NewClass("Counter", classmodel.Trusted)
	caller := classmodel.NewClass("Caller", classmodel.Untrusted)
	for _, m := range []struct {
		c *classmodel.Class
		m *classmodel.Method
	}{
		{counter, &classmodel.Method{Name: classmodel.CtorName, Public: true, Body: null}},
		{counter, &classmodel.Method{Name: "note", Public: true, Params: str, Body: func(_ classmodel.Env, _ wire.Value, args []wire.Value) (wire.Value, error) {
			s, _ := args[0].AsStr()
			mu.Lock()
			runs[s]++
			first := runs[s] == 1
			mu.Unlock()
			if s == "2" && first {
				// Hold the ring in this call until CloseRings has begun,
				// so the third call finds the ring stopped.
				close(entered)
				for !w.Untrusted().RingsClosed() {
					runtime.Gosched()
				}
			}
			return wire.Null(), nil
		}}},
		{caller, &classmodel.Method{Name: "reach", Public: true, Allocates: []string{"Counter"},
			Calls: []classmodel.MethodRef{{Class: "Counter", Method: "note"}}, Body: null}},
	} {
		if err := m.c.AddMethod(m.m); err != nil {
			t.Fatal(err)
		}
	}
	p := demo.MustBankProgram()
	for _, c := range []*classmodel.Class{counter, caller} {
		if err := p.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	w = ringWorld(t, p, func(o *world.Options) { o.Cfg.Batching = true })

	closed := make(chan struct{})
	go func() {
		<-entered
		w.Untrusted().CloseRings()
		close(closed)
	}()
	var before world.DispatchStats
	err := w.Exec(false, func(env classmodel.Env) error {
		obj, err := env.New("Counter")
		if err != nil {
			return err
		}
		for _, s := range []string{"1", "2", "3"} {
			if _, err := env.Call(obj, "note", wire.Str(s)); err != nil {
				return err
			}
		}
		before = w.DispatchStats()
		return w.Flush()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-closed
	for _, s := range []string{"1", "2", "3"} {
		if runs[s] != 1 {
			t.Fatalf("runs %v, want each call once", runs)
		}
	}
	// The batch carries Counter's constructor relay ahead of the notes.
	if rode := w.DispatchStats().RingCalls - before.RingCalls; rode < 3 {
		t.Fatalf("%d calls rode the ring, want the 3 that ran before the close", rode)
	}
}
