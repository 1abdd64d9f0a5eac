package bench

// Group-commit experiment: the durable-write cost model of the commit
// protocol. Each cell drives W concurrent writers through one
// persist.Manager and measures what sharing a frame buys — appends per
// second, per-ack latency quantiles, the achieved group size, and
// sealed bytes per operation — from the lone writer, where a frame
// carries one record, to the saturated queue.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"montsalvat/internal/persist"
	"montsalvat/internal/simcfg"
)

// groupCommitWriters is the concurrency sweep.
func groupCommitWriters(opts Options) []int {
	if opts.Quick {
		return []int{1, 4, 16}
	}
	return []int{1, 4, 16, 64}
}

// groupCommitAppends is the fixed work of every cell, split across the
// cell's writers. A cell sized per writer (400 puts at one writer, some
// 2 ms) read 89k, 134k and 226k puts/s on three runs of identical code;
// at 50k appends and up the cells repeat.
func groupCommitAppends(opts Options) int { return opts.scale(100_000, 50_000) }

// commitCell is one measured writer count of the group-commit sweep.
type commitCell struct {
	putsPerSec       float64
	ackP50US         float64
	ackP99US         float64
	meanBatch        float64
	sealedFrames     uint64
	sealedBytesPerOp float64
}

// runCommitCell measures one cell: W writers journal
// groupCommitAppends puts between them through a fresh manager, and
// every Append's wall latency is sampled.
func runCommitCell(opts Options, writers int) (commitCell, error) {
	perWriter := (groupCommitAppends(opts) + writers - 1) / writers
	l, err := newRecoveryLineage(simcfg.Default())
	if err != nil {
		return commitCell{}, err
	}
	m, st, err := l.boot()
	if err != nil {
		return commitCell{}, err
	}
	if _, err := m.Recover(); err != nil {
		return commitCell{}, err
	}

	val := make([]byte, 64)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	total := writers * perWriter
	lats := make([][]time.Duration, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, perWriter)
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%03d:%06d", w, i)
				st.Put(key, val)
				t0 := time.Now()
				if _, err := m.Append("kv", persist.OpPut, key, val); err != nil {
					errs[w] = err
					return
				}
				lat = append(lat, time.Since(t0))
			}
			lats[w] = lat
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return commitCell{}, err
		}
	}

	all := make([]time.Duration, 0, total)
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	quant := func(q float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(q * float64(len(all)-1))
		return float64(all[i].Nanoseconds()) / 1e3
	}

	stats := m.Stats()
	return commitCell{
		putsPerSec:       float64(total) / elapsed,
		ackP50US:         quant(0.50),
		ackP99US:         quant(0.99),
		meanBatch:        float64(stats.GroupedRecords) / float64(stats.GroupCommits),
		sealedFrames:     stats.GroupCommits,
		sealedBytesPerOp: float64(stats.AppendedBytes) / float64(total),
	}, nil
}

// GroupCommit regenerates the group-commit table: one column per writer
// count.
func GroupCommit(opts Options) (*Table, error) {
	writers := groupCommitWriters(opts)
	t := &Table{
		ID:      "group-commit",
		Title:   "Group commit: durable-put throughput vs concurrent writers",
		XLabel:  "series \\ writers",
		Unit:    "puts/s",
		Columns: intColumns(writers),
	}
	cells := make([]commitCell, len(writers))
	for i, w := range writers {
		c, err := runCommitCell(opts, w)
		if err != nil {
			return nil, fmt.Errorf("group-commit writers=%d: %w", w, err)
		}
		cells[i] = c
	}
	row := func(name string, pick func(commitCell) float64) {
		vals := make([]float64, len(cells))
		for i, c := range cells {
			vals[i] = pick(c)
		}
		t.AddRow(name, vals...)
	}
	row("puts/s", func(c commitCell) float64 { return c.putsPerSec })
	row("records/frame", func(c commitCell) float64 { return c.meanBatch })
	row("ack-p50-us", func(c commitCell) float64 { return c.ackP50US })
	row("ack-p99-us", func(c commitCell) float64 { return c.ackP99US })
	row("sealed-frames", func(c commitCell) float64 { return float64(c.sealedFrames) })
	row("sealed-bytes/op", func(c commitCell) float64 { return c.sealedBytesPerOp })
	t.AddNote("%d appends per cell split across the writers; one sealed WAL frame per commit group", groupCommitAppends(opts))
	t.AddNote("grouping is natural: a leader yields once, then seals whatever queued behind it")
	return t, nil
}
