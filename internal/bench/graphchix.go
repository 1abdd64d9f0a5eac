package bench

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/graphchi"
	"montsalvat/internal/heap"
	"montsalvat/internal/jvm"
	"montsalvat/internal/rmat"
	"montsalvat/internal/shim"
	"montsalvat/internal/specjvm"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// graphchiState carries the Go-side engine state shared by the wrapper
// class bodies of one world.
type graphchiState struct {
	graph rmat.Graph
	set   graphchi.ShardSet
	// timings are recorded by the bodies so the harness can report the
	// sharding/engine breakdown of Fig. 9.
	shardTime  timing
	engineTime timing
	rankSum    float64
}

// pageRankIterations matches GraphChi's example PageRank configuration.
const pageRankIterations = 4

// graphchiProgram wraps the GraphChi library in the FastSharder and
// GraphChiEngine classes of Fig. 8 (§6.5: "we make the GraphChiEngine
// trusted and the FastSharder untrusted"). Durations are captured from
// inside the bodies so transitions and shim ocalls are attributed to the
// right phase.
func graphchiProgram(sharderAnn, engineAnn classmodel.Annotation, st *graphchiState, clock func() meter) (*classmodel.Program, error) {
	p := classmodel.NewProgram()

	sharder := classmodel.NewClass("FastSharder", sharderAnn)
	if err := sharder.AddMethod(&classmodel.Method{
		Name: classmodel.CtorName, Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		},
	}); err != nil {
		return nil, err
	}
	if err := sharder.AddMethod(&classmodel.Method{
		Name: "shard", Public: true,
		Params:  []classmodel.Param{{Name: "numShards", Kind: wire.KindInt}},
		Returns: wire.KindInt,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			n, _ := args[0].AsInt()
			m := clock()
			set, stats, err := graphchi.Shard(env.FS(), st.graph, int(n), "bench-graph")
			if err != nil {
				return wire.Value{}, err
			}
			st.shardTime = m.stop()
			st.set = set
			return wire.Int(int64(stats.EdgesSharded)), nil
		},
	}); err != nil {
		return nil, err
	}
	if err := p.AddClass(sharder); err != nil {
		return nil, err
	}

	engine := classmodel.NewClass("GraphChiEngine", engineAnn)
	if err := engine.AddMethod(&classmodel.Method{
		Name: classmodel.CtorName, Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		},
	}); err != nil {
		return nil, err
	}
	if err := engine.AddMethod(&classmodel.Method{
		Name: "pagerank", Public: true,
		Params:  []classmodel.Param{{Name: "iterations", Kind: wire.KindInt}},
		Returns: wire.KindFloat,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			if st.set.NumVertices == 0 {
				return wire.Value{}, errors.New("pagerank before sharding")
			}
			it, _ := args[0].AsInt()
			m := clock()
			ranks, _, err := graphchi.RunPageRank(env.FS(), st.set, graphchi.PageRankConfig{Iterations: int(it)}, env.MemTouch)
			if err != nil {
				return wire.Value{}, err
			}
			st.engineTime = m.stop()
			var sum float64
			for _, r := range ranks {
				sum += r
			}
			st.rankSum = sum
			return wire.Float(sum), nil
		},
	}); err != nil {
		return nil, err
	}
	if err := p.AddClass(engine); err != nil {
		return nil, err
	}

	mainC := classmodel.NewClass("GCMain", classmodel.Untrusted)
	if err := mainC.AddMethod(&classmodel.Method{
		Name: classmodel.MainMethodName, Static: true, Public: true,
		Allocates: []string{"FastSharder", "GraphChiEngine"},
		Calls: []classmodel.MethodRef{
			{Class: "FastSharder", Method: "shard"},
			{Class: "GraphChiEngine", Method: "pagerank"},
		},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		},
	}); err != nil {
		return nil, err
	}
	if err := p.AddClass(mainC); err != nil {
		return nil, err
	}
	p.MainClass = "GCMain"
	return p, nil
}

// graphchiConfig is one Fig. 9 / Fig. 11 configuration.
type graphchiConfig struct {
	name        string
	partitioned bool
	inEnclave   bool
}

// graphchiRun is the outcome of one sharded PageRank execution.
// Each phase carries its deterministic simulated-cost component
// (transitions, MEE traffic) next to its duration.
type graphchiRun struct {
	total  timing
	shard  timing
	engine timing
}

// runGraphChi shards and ranks one graph under one configuration.
func runGraphChi(opts Options, cfg graphchiConfig, g rmat.Graph, numShards int) (graphchiRun, error) {
	sharderAnn := classmodel.Neutral
	engineAnn := classmodel.Neutral
	if cfg.partitioned {
		sharderAnn = classmodel.Untrusted
		engineAnn = classmodel.Trusted
	}
	st := &graphchiState{graph: g}
	var w *world.World
	prog, err := graphchiProgram(sharderAnn, engineAnn, st, func() meter {
		return startMeter(w.Clock())
	})
	if err != nil {
		return graphchiRun{}, err
	}
	wopts := world.DefaultOptions()
	wopts.TrustedHeap = heap.Config{InitialSemi: 8 << 20, MaxSemi: 1 << 30}
	wopts.UntrustedHeap = heap.Config{InitialSemi: 8 << 20, MaxSemi: 1 << 30}
	if cfg.partitioned {
		w, _, err = core.NewPartitionedWorld(prog, wopts)
	} else {
		w, _, err = core.NewUnpartitionedWorld(prog, wopts, cfg.inEnclave)
	}
	if err != nil {
		return graphchiRun{}, fmt.Errorf("graphchi %s: %w", cfg.name, err)
	}
	defer w.Close()

	m := startMeter(w.Clock())
	err = w.ExecMain(func(env classmodel.Env) error {
		sh, err := env.New("FastSharder")
		if err != nil {
			return err
		}
		if _, err := env.Call(sh, "shard", wire.Int(int64(numShards))); err != nil {
			return err
		}
		eng, err := env.New("GraphChiEngine")
		if err != nil {
			return err
		}
		_, err = env.Call(eng, "pagerank", wire.Int(pageRankIterations))
		return err
	})
	if err != nil {
		return graphchiRun{}, fmt.Errorf("graphchi %s: %w", cfg.name, err)
	}
	return graphchiRun{total: m.stop(), shard: st.shardTime, engine: st.engineTime}, nil
}

// Fig9 regenerates the partitioned GraphChi PageRank comparison (§6.5,
// Fig. 9): three graph sizes, shard counts 1-6, with the
// sharding/engine breakdown.
func Fig9(opts Options) (*Table, error) {
	type graphSpec struct {
		label    string
		vertices int
		edges    int
	}
	var graphs []graphSpec
	var shardCounts []int
	if opts.Quick {
		graphs = []graphSpec{{label: "5k-V,50k-E", vertices: 5000, edges: 50000}}
		shardCounts = []int{1, 3}
	} else {
		graphs = []graphSpec{
			{label: "6.25k-V,25k-E", vertices: 6250, edges: 25000},
			{label: "12.5k-V,50k-E", vertices: 12500, edges: 50000},
			{label: "25k-V,100k-E", vertices: 25000, edges: 100000},
		}
		shardCounts = []int{1, 2, 3, 4, 5, 6}
	}

	var columns []string
	for _, g := range graphs {
		for _, s := range shardCounts {
			columns = append(columns, g.label+"/s"+strconv.Itoa(s))
		}
	}
	t := &Table{
		ID:      "fig9",
		Title:   "GraphChi PageRank run time (total, with sharding/engine breakdown)",
		XLabel:  "config \\ graph/shards",
		Unit:    "seconds",
		Columns: columns,
	}

	configs := []graphchiConfig{
		{name: "NoSGX"},
		{name: "NoPart", inEnclave: true},
		{name: "Part", partitioned: true},
	}
	totals := map[string][]timing{}
	shards := map[string][]timing{}
	engines := map[string][]timing{}
	for _, cfg := range configs {
		for _, gs := range graphs {
			g, err := rmat.Generate(gs.vertices, gs.edges, 2021)
			if err != nil {
				return nil, err
			}
			for _, ns := range shardCounts {
				run, err := runGraphChi(opts, cfg, g, ns)
				if err != nil {
					return nil, err
				}
				totals[cfg.name] = append(totals[cfg.name], run.total)
				shards[cfg.name] = append(shards[cfg.name], run.shard)
				engines[cfg.name] = append(engines[cfg.name], run.engine)
			}
		}
	}
	for _, cfg := range configs {
		t.AddTimedRow(cfg.name+" total", totals[cfg.name])
		t.AddTimedRow(cfg.name+" sharding", shards[cfg.name])
		t.AddTimedRow(cfg.name+" engine", engines[cfg.name])
	}
	addRatioNote(t, "NoPart total", "Part total")
	addRatioNote(t, "Part sharding", "NoSGX sharding")
	return t, nil
}

// Fig11 compares GraphChi native images with JVM baselines on the largest
// graph (§6.6, Fig. 11).
func Fig11(opts Options) (*Table, error) {
	vertices := opts.scale(25000, 5000)
	edges := opts.scale(100000, 50000)
	var shardCounts []int
	if opts.Quick {
		shardCounts = []int{1, 3}
	} else {
		shardCounts = []int{1, 2, 3, 4, 5, 6}
	}
	g, err := rmat.Generate(vertices, edges, 2021)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "fig11",
		Title:   fmt.Sprintf("GraphChi PageRank, %dk vertices %dk edges: native images vs JVM", vertices/1000, edges/1000),
		XLabel:  "config \\ shards",
		Unit:    "seconds",
		Columns: intColumns(shardCounts),
	}

	for _, cfg := range []graphchiConfig{
		{name: "NoSGX-NI"},
		{name: "Part-NI", partitioned: true},
		{name: "NoPart-NI", inEnclave: true},
	} {
		values := make([]timing, 0, len(shardCounts))
		for _, ns := range shardCounts {
			run, err := runGraphChi(opts, cfg, g, ns)
			if err != nil {
				return nil, err
			}
			values = append(values, run.total)
		}
		t.AddTimedRow(cfg.name, values)
	}

	// JVM baselines from the runtime cost models over the measured
	// library run.
	for _, m := range []jvm.Model{jvm.NoSGXJVM, jvm.SCONEJVM} {
		values := make([]timing, 0, len(shardCounts))
		for _, ns := range shardCounts {
			d, err := graphchiUnderModel(m, g, ns)
			if err != nil {
				return nil, err
			}
			values = append(values, d)
		}
		t.AddTimedRow(m.String(), values)
	}

	addGainNote(t, "SCONE+JVM", "Part-NI")
	addGainNote(t, "SCONE+JVM", "NoPart-NI")
	return t, nil
}

// graphchiUnderModel runs the GraphChi workload as plain Go and applies a
// jvm runtime model: shard/engine I/O operations become relayed syscalls,
// the streamed shard and rank data is the DRAM traffic, and the Java
// version's per-edge object churn drives the GC term.
func graphchiUnderModel(m jvm.Model, g rmat.Graph, numShards int) (timing, error) {
	fs := shim.NewMemFS()
	start := time.Now()
	set, sstats, err := graphchi.Shard(fs, g, numShards, "model-graph")
	if err != nil {
		return timing{}, err
	}
	_, estats, err := graphchi.RunPageRank(fs, set, graphchi.PageRankConfig{Iterations: pageRankIterations}, nil)
	if err != nil {
		return timing{}, err
	}
	wall := time.Since(start)

	work := specjvm.Work{
		BytesTouched: sstats.BytesWritten + sstats.BytesRead + estats.BytesRead + estats.BytesStreamed,
		DRAMBytes:    sstats.BytesWritten + estats.BytesStreamed,
		// Per-edge boxing/iterator garbage in the Java implementation.
		AllocBytes: estats.EdgesProcessed*32 + int64(len(g.Edges))*24,
	}
	syscalls := int64(sstats.WriteOps + sstats.ReadOps + estats.ReadOps)
	runner := jvm.NewRunner(0)
	base := int64(wall.Seconds() * runner.Hz())
	return modelled(m.Apply(base, work, syscalls), runner.Hz()), nil
}
