// PageRank: the paper's GraphChi macro-benchmark (§6.5) as a runnable
// example.
//
// The GraphChi workflow (Fig. 8) is partitioned along its two phases:
// FastSharder (@Untrusted) splits an R-MAT graph into shards on the host
// filesystem at native speed, and GraphChiEngine (@Trusted) computes
// PageRank inside the enclave, streaming shards in through the shim. The
// same computation is then run unpartitioned inside the enclave to show
// the speedup partitioning buys. Each phase reports its host time plus
// the SGX costs it charged on the world's cycle ledger, converted at the
// modelled clock rate.
//
//	go run ./examples/pagerank
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"montsalvat"
	"montsalvat/internal/graphchi"
	"montsalvat/internal/rmat"
)

const (
	numVertices = 10000
	numEdges    = 50000
	numShards   = 4
	iterations  = 4
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pagerank:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Printf("GraphChi PageRank on an R-MAT graph (%d vertices, %d edges, %d shards)\n\n",
		numVertices, numEdges, numShards)
	graph, err := rmat.Generate(numVertices, numEdges, 7)
	if err != nil {
		return err
	}

	type phase struct{ shard, engine time.Duration }
	var ranks []float64

	runWorld := func(partitioned bool, inEnclave bool) (phase, error) {
		var ph phase
		prog, st, err := graphProgram(partitioned)
		if err != nil {
			return ph, err
		}
		st.graph = graph

		var w *montsalvat.World
		if partitioned {
			w, _, err = montsalvat.NewPartitionedWorld(prog, montsalvat.DefaultOptions())
		} else {
			w, _, err = montsalvat.NewUnpartitionedWorld(prog, montsalvat.DefaultOptions(), inEnclave)
		}
		if err != nil {
			return ph, err
		}
		defer w.Close()
		st.world = w

		if _, err := w.RunMain(); err != nil {
			return ph, err
		}
		ph.shard = st.shardTime
		ph.engine = st.engineTime
		ranks = st.ranks
		return ph, nil
	}

	part, err := runWorld(true, false)
	if err != nil {
		return err
	}
	fmt.Printf("partitioned      sharding (untrusted) %8v   engine (enclave) %8v\n", part.shard.Round(time.Microsecond), part.engine.Round(time.Microsecond))

	noPart, err := runWorld(false, true)
	if err != nil {
		return err
	}
	fmt.Printf("unpartitioned    sharding (enclave)   %8v   engine (enclave) %8v\n", noPart.shard.Round(time.Microsecond), noPart.engine.Round(time.Microsecond))

	native, err := runWorld(false, false)
	if err != nil {
		return err
	}
	fmt.Printf("no SGX           sharding (native)    %8v   engine (native)  %8v\n\n", native.shard.Round(time.Microsecond), native.engine.Round(time.Microsecond))

	// Report the top-ranked vertices.
	type vr struct {
		v int
		r float64
	}
	top := make([]vr, 0, len(ranks))
	for v, r := range ranks {
		top = append(top, vr{v: v, r: r})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].r > top[j].r })
	fmt.Println("top PageRank vertices:")
	for i := 0; i < 5 && i < len(top); i++ {
		fmt.Printf("  vertex %5d  rank %.6f\n", top[i].v, top[i].r)
	}
	return nil
}

// graphState is shared between the wrapper class bodies of one world.
type graphState struct {
	world      *montsalvat.World
	graph      rmat.Graph
	set        graphchi.ShardSet
	shardTime  time.Duration
	engineTime time.Duration
	ranks      []float64
}

// timed runs f and returns its host time plus the cycles it charged on
// the world's ledger at the modelled clock rate.
func (st *graphState) timed(f func()) time.Duration {
	clk := st.world.Clock()
	c0, start := clk.Total(), time.Now()
	f()
	return time.Since(start) + clk.Duration(clk.Total()-c0)
}

// graphProgram wraps the GraphChi library in FastSharder/GraphChiEngine
// classes, annotated per the paper's scheme when partitioned.
func graphProgram(partitioned bool) (*montsalvat.Program, *graphState, error) {
	st := &graphState{}
	sharderAnn := montsalvat.Neutral
	engineAnn := montsalvat.Neutral
	if partitioned {
		sharderAnn = montsalvat.Untrusted
		engineAnn = montsalvat.Trusted
	}

	p := montsalvat.NewProgram()
	sharder := montsalvat.NewClass("FastSharder", sharderAnn)
	if err := sharder.AddMethod(&montsalvat.Method{
		Name: montsalvat.CtorName, Public: true,
		Body: func(env montsalvat.Env, self montsalvat.Value, args []montsalvat.Value) (montsalvat.Value, error) {
			return montsalvat.Null(), nil
		},
	}); err != nil {
		return nil, nil, err
	}
	if err := sharder.AddMethod(&montsalvat.Method{
		Name: "shard", Public: true, Returns: montsalvat.KindInt,
		Body: func(env montsalvat.Env, self montsalvat.Value, args []montsalvat.Value) (montsalvat.Value, error) {
			var stats graphchi.SharderStats
			var err error
			st.shardTime = st.timed(func() {
				st.set, stats, err = graphchi.Shard(env.FS(), st.graph, numShards, "pagerank")
			})
			if err != nil {
				return montsalvat.Null(), err
			}
			return montsalvat.Int(int64(stats.EdgesSharded)), nil
		},
	}); err != nil {
		return nil, nil, err
	}
	if err := p.AddClass(sharder); err != nil {
		return nil, nil, err
	}

	engine := montsalvat.NewClass("GraphChiEngine", engineAnn)
	if err := engine.AddMethod(&montsalvat.Method{
		Name: montsalvat.CtorName, Public: true,
		Body: func(env montsalvat.Env, self montsalvat.Value, args []montsalvat.Value) (montsalvat.Value, error) {
			return montsalvat.Null(), nil
		},
	}); err != nil {
		return nil, nil, err
	}
	if err := engine.AddMethod(&montsalvat.Method{
		Name: "pagerank", Public: true, Returns: montsalvat.KindFloat,
		Body: func(env montsalvat.Env, self montsalvat.Value, args []montsalvat.Value) (montsalvat.Value, error) {
			var err error
			st.engineTime = st.timed(func() {
				st.ranks, _, err = graphchi.RunPageRank(env.FS(), st.set, graphchi.PageRankConfig{Iterations: iterations}, env.MemTouch)
			})
			if err != nil {
				return montsalvat.Null(), err
			}
			var sum float64
			for _, r := range st.ranks {
				sum += r
			}
			return montsalvat.Float(sum), nil
		},
	}); err != nil {
		return nil, nil, err
	}
	if err := p.AddClass(engine); err != nil {
		return nil, nil, err
	}

	mainC := montsalvat.NewClass("Main", montsalvat.Untrusted)
	if err := mainC.AddMethod(&montsalvat.Method{
		Name: montsalvat.MainMethodName, Static: true, Public: true,
		Allocates: []string{"FastSharder", "GraphChiEngine"},
		Calls: []montsalvat.MethodRef{
			{Class: "FastSharder", Method: "shard"},
			{Class: "GraphChiEngine", Method: "pagerank"},
		},
		Body: func(env montsalvat.Env, self montsalvat.Value, args []montsalvat.Value) (montsalvat.Value, error) {
			sh, err := env.New("FastSharder")
			if err != nil {
				return montsalvat.Null(), err
			}
			if _, err := env.Call(sh, "shard"); err != nil {
				return montsalvat.Null(), err
			}
			eng, err := env.New("GraphChiEngine")
			if err != nil {
				return montsalvat.Null(), err
			}
			return env.Call(eng, "pagerank")
		},
	}); err != nil {
		return nil, nil, err
	}
	if err := p.AddClass(mainC); err != nil {
		return nil, nil, err
	}
	p.MainClass = "Main"
	return p, st, nil
}
