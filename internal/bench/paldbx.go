package bench

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/heap"
	"montsalvat/internal/jvm"
	"montsalvat/internal/paldb"
	"montsalvat/internal/shim"
	"montsalvat/internal/specjvm"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// paldbStoreFile is the store file name used by the PalDB benchmarks.
const paldbStoreFile = "bench.paldb"

// paldbScheme is one configuration of Fig. 7 / Fig. 10.
type paldbScheme struct {
	name string
	// partitioned selects the Montsalvat pipeline; otherwise the app is
	// one image, inEnclave or not.
	partitioned bool
	inEnclave   bool
	readerAnn   classmodel.Annotation
	writerAnn   classmodel.Annotation
}

func paldbSchemes() []paldbScheme {
	return []paldbScheme{
		{name: "NoSGX", inEnclave: false},
		{name: "NoPart", inEnclave: true},
		// RTWU: DBReader trusted, DBWriter untrusted (§6.5).
		{name: "Part(RTWU)", partitioned: true, readerAnn: classmodel.Trusted, writerAnn: classmodel.Untrusted},
		// WTRU: DBWriter trusted, DBReader untrusted.
		{name: "Part(WTRU)", partitioned: true, readerAnn: classmodel.Untrusted, writerAnn: classmodel.Trusted},
	}
}

// paldbState is the per-world Go-side store state captured by the class
// bodies.
type paldbState struct {
	writer *paldb.Writer
	reader *paldb.Reader
}

// paldbProgram builds the DBWriter/DBReader wrapper classes of §6.5
// around the PalDB library. The writer streams records through the
// runtime's FS (ocalls when trusted); the reader memory-maps the store
// and charges its map accesses to the runtime's memory (MEE when
// trusted). Batched APIs keep driver-to-store calls coarse, as in the
// paper's benchmark.
func paldbProgram(readerAnn, writerAnn classmodel.Annotation) (*classmodel.Program, error) {
	st := &paldbState{}
	p := classmodel.NewProgram()

	writer := classmodel.NewClass("DBWriter", writerAnn)
	if err := writer.AddMethod(&classmodel.Method{
		Name: classmodel.CtorName, Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			w, err := paldb.NewWriter(env.FS(), paldbStoreFile)
			if err != nil {
				return wire.Value{}, err
			}
			st.writer = w
			return wire.Null(), nil
		},
	}); err != nil {
		return nil, err
	}
	if err := writer.AddMethod(&classmodel.Method{
		Name: "writeBatch", Public: true,
		Params: []classmodel.Param{
			{Name: "keys", Kind: wire.KindList},
			{Name: "vals", Kind: wire.KindList},
		},
		Returns: wire.KindInt,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			if st.writer == nil {
				return wire.Value{}, errors.New("writeBatch before construction")
			}
			keys, _ := args[0].AsList()
			vals, _ := args[1].AsList()
			if len(keys) != len(vals) {
				return wire.Value{}, errors.New("key/value length mismatch")
			}
			for i := range keys {
				k, _ := keys[i].AsStr()
				v, _ := vals[i].AsStr()
				if err := st.writer.Put([]byte(k), []byte(v)); err != nil {
					return wire.Value{}, err
				}
				env.MemTouch(len(k) + len(v))
			}
			return wire.Int(int64(len(keys))), nil
		},
	}); err != nil {
		return nil, err
	}
	if err := writer.AddMethod(&classmodel.Method{
		Name: "seal", Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			if st.writer == nil {
				return wire.Value{}, errors.New("seal before construction")
			}
			return wire.Null(), st.writer.Close()
		},
	}); err != nil {
		return nil, err
	}
	if err := p.AddClass(writer); err != nil {
		return nil, err
	}

	reader := classmodel.NewClass("DBReader", readerAnn)
	if err := reader.AddMethod(&classmodel.Method{
		Name: classmodel.CtorName, Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			r, err := paldb.Open(env.FS(), paldbStoreFile)
			if err != nil {
				return wire.Value{}, err
			}
			// Map accesses stream through this runtime's memory: MEE
			// cost inside the enclave.
			r.SetTouch(env.MemTouch)
			st.reader = r
			return wire.Null(), nil
		},
	}); err != nil {
		return nil, err
	}
	if err := reader.AddMethod(&classmodel.Method{
		Name: "readBatch", Public: true,
		Params:  []classmodel.Param{{Name: "keys", Kind: wire.KindList}},
		Returns: wire.KindInt,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			if st.reader == nil {
				return wire.Value{}, errors.New("readBatch before open")
			}
			keys, _ := args[0].AsList()
			var total int64
			for _, kv := range keys {
				k, _ := kv.AsStr()
				v, err := st.reader.Get([]byte(k))
				if err != nil {
					return wire.Value{}, err
				}
				total += int64(len(v))
			}
			return wire.Int(total), nil
		},
	}); err != nil {
		return nil, err
	}
	if err := p.AddClass(reader); err != nil {
		return nil, err
	}

	mainC := classmodel.NewClass("PalDBMain", classmodel.Untrusted)
	if err := mainC.AddMethod(&classmodel.Method{
		Name: classmodel.MainMethodName, Static: true, Public: true,
		Allocates: []string{"DBWriter", "DBReader"},
		Calls: []classmodel.MethodRef{
			{Class: "DBWriter", Method: "writeBatch"},
			{Class: "DBWriter", Method: "seal"},
			{Class: "DBReader", Method: "readBatch"},
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
	p.MainClass = "PalDBMain"
	return p, nil
}

// paldbKV generates the workload data: keys are stringified random
// integers in [0, 2^31), values random 128-byte strings (§6.5).
func paldbKV(n int) (keys, vals []wire.Value, totalValBytes int64) {
	rng := uint64(0xC0FFEE)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng
	}
	seen := make(map[string]bool, n)
	keys = make([]wire.Value, 0, n)
	vals = make([]wire.Value, 0, n)
	for len(keys) < n {
		k := strconv.FormatUint(next()>>33, 10)
		if seen[k] {
			continue
		}
		seen[k] = true
		v := make([]byte, 128)
		for i := range v {
			v[i] = byte('a' + next()%26)
		}
		keys = append(keys, wire.Str(k))
		vals = append(vals, wire.Str(string(v)))
		totalValBytes += 128
	}
	return keys, vals, totalValBytes
}

// runPalDB executes the write-then-read workload under one scheme and
// returns its duration and charged cycles.
func runPalDB(opts Options, scheme paldbScheme, nKeys, batch int) (timing, world.Stats, error) {
	readerAnn := scheme.readerAnn
	writerAnn := scheme.writerAnn
	if !scheme.partitioned {
		readerAnn = classmodel.Neutral
		writerAnn = classmodel.Neutral
	}
	prog, err := paldbProgram(readerAnn, writerAnn)
	if err != nil {
		return timing{}, world.Stats{}, err
	}
	wopts := world.DefaultOptions()
	wopts.TrustedHeap = heap.Config{InitialSemi: 8 << 20, MaxSemi: 1 << 30}
	wopts.UntrustedHeap = heap.Config{InitialSemi: 8 << 20, MaxSemi: 1 << 30}

	var w *world.World
	if scheme.partitioned {
		w, _, err = core.NewPartitionedWorld(prog, wopts)
	} else {
		w, _, err = core.NewUnpartitionedWorld(prog, wopts, scheme.inEnclave)
	}
	if err != nil {
		return timing{}, world.Stats{}, fmt.Errorf("paldb %s: %w", scheme.name, err)
	}
	defer w.Close()

	keys, vals, wantBytes := paldbKV(nKeys)
	m := startMeter(w.Clock())
	var got int64
	err = w.ExecMain(func(env classmodel.Env) error {
		writer, err := env.New("DBWriter")
		if err != nil {
			return err
		}
		for off := 0; off < len(keys); off += batch {
			end := off + batch
			if end > len(keys) {
				end = len(keys)
			}
			if _, err := env.Call(writer, "writeBatch", wire.List(keys[off:end]...), wire.List(vals[off:end]...)); err != nil {
				return err
			}
		}
		if _, err := env.Call(writer, "seal"); err != nil {
			return err
		}
		reader, err := env.New("DBReader")
		if err != nil {
			return err
		}
		for off := 0; off < len(keys); off += batch {
			end := off + batch
			if end > len(keys) {
				end = len(keys)
			}
			res, err := env.Call(reader, "readBatch", wire.List(keys[off:end]...))
			if err != nil {
				return err
			}
			n, _ := res.AsInt()
			got += n
		}
		return nil
	})
	elapsed := m.stop()
	if err != nil {
		return timing{}, world.Stats{}, fmt.Errorf("paldb %s: %w", scheme.name, err)
	}
	if got != wantBytes {
		return timing{}, world.Stats{}, fmt.Errorf("paldb %s: read %d bytes, want %d", scheme.name, got, wantBytes)
	}
	return elapsed, w.Stats(), nil
}

// Fig7 regenerates the PalDB partitioning comparison (§6.5, Fig. 7).
func Fig7(opts Options) (*Table, error) {
	counts := sweep(opts.scale(10_000, 400), opts.scale(100_000, 2_000), opts.scale(10, 5))
	batch := opts.scale(1000, 100)
	t := &Table{
		ID:      "fig7",
		Title:   "Time to write and read K/V pairs in PalDB",
		XLabel:  "scheme \\ keys",
		Unit:    "seconds",
		Columns: intColumns(counts),
	}
	var ocallsRTWU, ocallsWTRU float64
	for _, scheme := range paldbSchemes() {
		values := make([]timing, 0, len(counts))
		for _, n := range counts {
			d, stats, err := runPalDB(opts, scheme, n, batch)
			if err != nil {
				return nil, err
			}
			values = append(values, d)
			if n == counts[len(counts)-1] {
				switch scheme.name {
				case "Part(RTWU)":
					ocallsRTWU = float64(stats.Enclave.Ocalls)
				case "Part(WTRU)":
					ocallsWTRU = float64(stats.Enclave.Ocalls)
				}
			}
		}
		t.AddTimedRow(scheme.name, values)
	}
	addRatioNote(t, "NoPart", "Part(RTWU)")
	addRatioNote(t, "NoPart", "Part(WTRU)")
	if ocallsRTWU > 0 {
		t.AddNote("ocalls at max keys: WTRU/RTWU = %.0fx (paper: ~23x more for the writer-in-enclave scheme)", ocallsWTRU/ocallsRTWU)
	}
	return t, nil
}

// Fig10 compares partitioned and unpartitioned PalDB native images with
// the JVM-in-SCONE baseline (§6.6, Fig. 10).
func Fig10(opts Options) (*Table, error) {
	counts := sweep(opts.scale(10_000, 400), opts.scale(100_000, 2_000), opts.scale(10, 5))
	batch := opts.scale(1000, 100)
	t := &Table{
		ID:      "fig10",
		Title:   "PalDB: partitioned/unpartitioned native images vs SCONE+JVM",
		XLabel:  "config \\ keys",
		Unit:    "seconds",
		Columns: intColumns(counts),
	}

	schemes := map[string]paldbScheme{}
	for _, s := range paldbSchemes() {
		schemes[s.name] = s
	}
	order := []struct {
		row    string
		scheme string
	}{
		{row: "NoPart-NI", scheme: "NoPart"},
		{row: "Part(RTWU)", scheme: "Part(RTWU)"},
		{row: "Part(WTRU)", scheme: "Part(WTRU)"},
		{row: "NoSGX-NI", scheme: "NoSGX"},
	}
	for _, o := range order {
		values := make([]timing, 0, len(counts))
		for _, n := range counts {
			d, _, err := runPalDB(opts, schemes[o.scheme], n, batch)
			if err != nil {
				return nil, err
			}
			values = append(values, d)
		}
		t.AddTimedRow(o.row, values)
	}

	// SCONE+JVM: the same workload under the JVM-in-SCONE cost model.
	sconeVals := make([]timing, 0, len(counts))
	for _, n := range counts {
		d, err := paldbUnderModel(jvm.SCONEJVM, n)
		if err != nil {
			return nil, err
		}
		sconeVals = append(sconeVals, d)
	}
	t.AddTimedRow("SCONE+JVM", sconeVals)

	addGainNote(t, "SCONE+JVM", "Part(RTWU)")
	addGainNote(t, "SCONE+JVM", "Part(WTRU)")
	addGainNote(t, "SCONE+JVM", "NoPart-NI")
	return t, nil
}

// paldbUnderModel runs the PalDB workload as plain Go (the measured
// base) and applies a jvm runtime model: every store write is one relayed
// syscall, the mapped store and record traffic is the enclave's DRAM
// traffic, and the Java version's per-record object garbage drives the GC
// term.
func paldbUnderModel(m jvm.Model, nKeys int) (timing, error) {
	fs := shim.NewMemFS()
	keys, vals, _ := paldbKV(nKeys)

	start := time.Now()
	w, err := paldb.NewWriter(fs, paldbStoreFile)
	if err != nil {
		return timing{}, err
	}
	for i := range keys {
		k, _ := keys[i].AsStr()
		v, _ := vals[i].AsStr()
		if err := w.Put([]byte(k), []byte(v)); err != nil {
			return timing{}, err
		}
	}
	if err := w.Close(); err != nil {
		return timing{}, err
	}
	r, err := paldb.Open(fs, paldbStoreFile)
	if err != nil {
		return timing{}, err
	}
	for i := range keys {
		k, _ := keys[i].AsStr()
		if _, err := r.Get([]byte(k)); err != nil {
			return timing{}, err
		}
	}
	wall := time.Since(start)

	ws := w.Stats()
	rs := r.Stats()
	work := specjvm.Work{
		BytesTouched: ws.BytesWritten + rs.MappedBytes + rs.BytesAccessed,
		DRAMBytes:    ws.BytesWritten + rs.MappedBytes,
		// Per-record Java garbage: boxed keys/values, stream buffers.
		AllocBytes: int64(nKeys) * 512,
	}
	syscalls := int64(ws.WriteOps) + int64(rs.MappedBytes)/(1<<20) + 2
	runner := jvm.NewRunner(0)
	base := int64(wall.Seconds() * runner.Hz())
	return modelled(m.Apply(base, work, syscalls), runner.Hz()), nil
}

// modelled converts a runtime model's cycle breakdown into a timing: the
// total at the modelled clock, with the overheads the model charged.
func modelled(o jvm.Overheads, hz float64) timing {
	return timing{
		elapsed: time.Duration(float64(o.Total()) / hz * float64(time.Second)),
		cycles:  o.Charged(),
	}
}

// addGainNote records the mean speedup of row `fast` relative to `slow`.
func addGainNote(t *Table, slow, fast string) {
	s, ok1 := t.Row(slow)
	f, ok2 := t.Row(fast)
	if !ok1 || !ok2 || len(s.Values) != len(f.Values) {
		return
	}
	var sum float64
	n := 0
	for i := range s.Values {
		if f.Values[i] > 0 {
			sum += s.Values[i] / f.Values[i]
			n++
		}
	}
	if n > 0 {
		t.AddNote("mean speedup of %s over %s = %.1fx", fast, slow, sum/float64(n))
	}
}
