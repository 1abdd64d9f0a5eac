package main

import (
	"fmt"
	"runtime"
	"time"

	"montsalvat/internal/core"
	"montsalvat/internal/demo"
)

// bootFailover does the failover workload's whole set-up, which is what
// setup_s times on it: the partitioned build, a 1x1 fabric booted on
// it, and the client's router, which dials and attests on first use
// and is therefore used once.
func (s *session) bootFailover() (*stack, error) {
	runtime.GC()
	pace := s.startPace()
	start := time.Now()
	build, err := core.BuildPartitioned(demo.MustKVProgram())
	if err != nil {
		return nil, fmt.Errorf("failover: build: %w", err)
	}
	st, err := newFabricStack(1, 1, build)
	if err != nil {
		return nil, fmt.Errorf("failover: boot: %w", err)
	}
	if _, _, err := st.client.Get("warm"); err != nil {
		st.close()
		return nil, fmt.Errorf("failover: dial: %w", err)
	}
	took := time.Since(start)
	s.setups = append(s.setups, took.Seconds()/pace.stop())
	s.boots = append(s.boots, float64(st.bootTime)/1e6)
	return st, nil
}

// failoverCycle is one round of the failover workload: set up a fresh
// fabric, load the fixed volume into it, kill the primary, promote the
// standby, read every record back and close the fabric. The client
// sends a fixed sequence, so every cycle is also a ledger pass and a
// set-up sample.
func (s *session) failoverCycle() error {
	st, err := s.bootFailover()
	if err != nil {
		return err
	}
	defer st.close()
	puts, gets := failoverOps(s.seed)
	c := &client{kv: st.client, led: newLedger(s.wl)}
	phase := func(ops []op) {
		for _, o := range ops {
			c.do(o)
		}
	}

	mark := markHost()
	pace := s.startPace()
	cpu0, _ := cpuTime()
	start := time.Now()
	cy0 := st.cycles()
	phase(puts)
	// The ledger of a cycle: what loading charged the primary, read
	// before the kill, plus the promoted shard's total after the
	// read-back.
	cycles := st.cycles() - cy0
	promotePace := s.startPace()
	promote, err := st.restart()
	if err != nil {
		return fmt.Errorf("failover: %w", err)
	}
	s.recovers = append(s.recovers, float64(promote[0])/1e6/promotePace.stop())
	s.promoteCy = append(s.promoteCy, float64(st.cycles()))
	phase(gets)
	cycles += st.cycles()
	busy := time.Since(start)
	cpu1, _ := cpuTime()
	s.host.since(mark)
	slowdown := pace.stop()

	r := roundResult{ops: len(c.getNS) + len(c.putNS)}
	// Boot is set-up, not work: the rate is over load, promote and
	// read-back.
	r.opsPerS = ratio(float64(r.ops), busy.Seconds()) * slowdown
	r.cpuPerOp = ratio(float64(cpu1-cpu0)/1e3, float64(r.ops)) / slowdown
	r.get, r.put = durationsUS(c.getNS, slowdown), durationsUS(c.putNS, slowdown)
	c.drain(s.out)
	s.rounds = append(s.rounds, r)
	s.ledgerCPO = append(s.ledgerCPO, float64(cycles)/float64(len(puts)+len(gets)))
	s.ledgerN += len(puts) + len(gets)
	return nil
}

// roundFailover adds d to the workload's window and runs cycles while
// the window is not used up; a cycle is never cut short.
func (s *session) roundFailover(d time.Duration) {
	s.window += d
	for s.window > 0 {
		start := time.Now()
		if err := s.failoverCycle(); err != nil {
			s.out.failed++
			s.out.note(err)
			s.window = 0
			return
		}
		s.window -= time.Since(start)
	}
}
