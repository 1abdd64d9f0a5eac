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

// GroupCommitPoint is one machine-readable cell of the group-commit
// sweep in BENCH_persist.json.
type GroupCommitPoint struct {
	Writers int `json:"writers"`
	// DelayUS and Grouped describe entries recorded while the engine
	// still had a timed commit window and a single-seal path beside the
	// commit queue: the window in microseconds (-1 on that single-seal
	// baseline) and whether the cell ran the queue. Every cell recorded
	// since runs the one protocol: window 0, grouped.
	DelayUS          float64 `json:"delay_us"`
	Grouped          bool    `json:"grouped"`
	PutsPerSec       float64 `json:"puts_per_sec"`
	AckP50US         float64 `json:"ack_p50_us"`
	AckP99US         float64 `json:"ack_p99_us"`
	MeanBatch        float64 `json:"mean_batch"`
	SealedFrames     uint64  `json:"sealed_frames"`
	SealedBytesPerOp float64 `json:"sealed_bytes_per_op"`
}

// runGroupCommitPoint measures one cell: W writers journal
// groupCommitAppends puts between them through a fresh manager, and
// every Append's wall latency is sampled.
func runGroupCommitPoint(opts Options, writers int) (GroupCommitPoint, error) {
	perWriter := (groupCommitAppends(opts) + writers - 1) / writers
	l, err := newRecoveryLineage(opts.Config())
	if err != nil {
		return GroupCommitPoint{}, err
	}
	m, st, err := l.boot()
	if err != nil {
		return GroupCommitPoint{}, err
	}
	if _, err := m.Recover(); err != nil {
		return GroupCommitPoint{}, err
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
			return GroupCommitPoint{}, err
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
	return GroupCommitPoint{
		Writers:          writers,
		Grouped:          true,
		PutsPerSec:       float64(total) / elapsed,
		AckP50US:         quant(0.50),
		AckP99US:         quant(0.99),
		MeanBatch:        float64(stats.GroupedRecords) / float64(stats.GroupCommits),
		SealedFrames:     stats.GroupCommits,
		SealedBytesPerOp: float64(stats.AppendedBytes) / float64(total),
	}, nil
}

// GroupCommitSweep runs one cell per writer count — the
// machine-readable record for BENCH_persist.json.
func GroupCommitSweep(opts Options) ([]GroupCommitPoint, error) {
	var pts []GroupCommitPoint
	for _, w := range groupCommitWriters(opts) {
		pt, err := runGroupCommitPoint(opts, w)
		if err != nil {
			return nil, fmt.Errorf("group-commit writers=%d: %w", w, err)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// GroupCommit regenerates the human-readable group-commit table.
func GroupCommit(opts Options) (*Table, error) {
	t := &Table{
		ID:      "group-commit",
		Title:   "Group commit: durable-put throughput vs concurrent writers",
		XLabel:  "series \\ writers",
		Unit:    "puts/s",
		Columns: intColumns(groupCommitWriters(opts)),
	}
	pts, err := GroupCommitSweep(opts)
	if err != nil {
		return nil, err
	}
	row := func(name string, pick func(GroupCommitPoint) float64) {
		vals := make([]float64, len(pts))
		for i, p := range pts {
			vals[i] = pick(p)
		}
		t.AddRow(name, vals...)
	}
	row("puts/s", func(p GroupCommitPoint) float64 { return p.PutsPerSec })
	row("records/frame", func(p GroupCommitPoint) float64 { return p.MeanBatch })
	row("ack-p99-us", func(p GroupCommitPoint) float64 { return p.AckP99US })
	t.AddNote("%d appends per cell split across the writers; one sealed WAL frame per commit group", groupCommitAppends(opts))
	t.AddNote("grouping is natural: a leader yields once, then seals whatever queued behind it")
	return t, nil
}
