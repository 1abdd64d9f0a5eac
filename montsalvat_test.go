package montsalvat

import (
	"testing"
)

// counterProgram builds a minimal annotated program through the public
// facade: a trusted Counter driven by an untrusted main.
func counterProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram()

	counter := NewClass("Counter", Trusted)
	if err := counter.AddField(Field{Name: "n", Kind: FieldInt}); err != nil {
		t.Fatal(err)
	}
	if err := counter.AddMethod(&Method{
		Name: CtorName, Public: true,
		Body: func(env Env, self Value, args []Value) (Value, error) {
			return Null(), env.SetField(self, "n", Int(0))
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := counter.AddMethod(&Method{
		Name: "inc", Public: true,
		Params: []Param{{Name: "by", Kind: KindInt}},
		Body: func(env Env, self Value, args []Value) (Value, error) {
			cur, err := env.GetField(self, "n")
			if err != nil {
				return Null(), err
			}
			n, _ := cur.AsInt()
			by, _ := args[0].AsInt()
			return Null(), env.SetField(self, "n", Int(n+by))
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := counter.AddMethod(&Method{
		Name: "value", Public: true, Returns: KindInt,
		Body: func(env Env, self Value, args []Value) (Value, error) {
			return env.GetField(self, "n")
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(counter); err != nil {
		t.Fatal(err)
	}

	mainC := NewClass("App", Untrusted)
	if err := mainC.AddMethod(&Method{
		Name: MainMethodName, Static: true, Public: true,
		Returns:   KindInt,
		Allocates: []string{"Counter"},
		Calls: []MethodRef{
			{Class: "Counter", Method: "inc"},
			{Class: "Counter", Method: "value"},
		},
		Body: func(env Env, self Value, args []Value) (Value, error) {
			c, err := env.New("Counter")
			if err != nil {
				return Null(), err
			}
			for i := 1; i <= 10; i++ {
				if _, err := env.Call(c, "inc", Int(int64(i))); err != nil {
					return Null(), err
				}
			}
			return env.Call(c, "value")
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(mainC); err != nil {
		t.Fatal(err)
	}
	p.MainClass = "App"
	return p
}

func TestFacadePartitionedRun(t *testing.T) {
	w, build, err := NewPartitionedWorld(counterProgram(t), DefaultOptions())
	if err != nil {
		t.Fatalf("NewPartitionedWorld: %v", err)
	}
	defer w.Close()
	if w.Mode() != ModePartitioned {
		t.Fatalf("mode = %v", w.Mode())
	}

	result, err := w.RunMain()
	if err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	if !result.Equal(Int(55)) {
		t.Fatalf("result = %v, want 55", result)
	}
	// Every inc crossed into the enclave.
	if got := w.Stats().Enclave.Ecalls; got < 11 {
		t.Fatalf("ecalls = %d, want >= 11", got)
	}
	// The build artefacts are exposed.
	if build.EDL() == "" || build.EdgeC() == "" {
		t.Fatal("EDL/EdgeC empty")
	}
	if build.TCB().TrustedMethods == 0 {
		t.Fatal("TCB empty")
	}
}

func TestFacadeModesAgree(t *testing.T) {
	var results []Value
	w, _, err := NewPartitionedWorld(counterProgram(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	results = append(results, r)

	for _, inEnclave := range []bool{true, false} {
		w, img, err := NewUnpartitionedWorld(counterProgram(t), DefaultOptions(), inEnclave)
		if err != nil {
			t.Fatal(err)
		}
		if img == nil {
			t.Fatal("nil image")
		}
		r, err := w.RunMain()
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		results = append(results, r)
	}
	for i := 1; i < len(results); i++ {
		if !results[i].Equal(results[0]) {
			t.Fatalf("mode %d: %v != %v", i, results[i], results[0])
		}
	}
}

func TestFacadeBuildOnly(t *testing.T) {
	build, err := BuildPartitioned(counterProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if build.TrustedImage == nil || build.UntrustedImage == nil {
		t.Fatal("images missing")
	}
	if build.TrustedImage.Measurement() == build.UntrustedImage.Measurement() {
		t.Fatal("trusted and untrusted images share a measurement")
	}
}

func TestFacadeFS(t *testing.T) {
	fs := NewMemFS()
	if err := fs.WriteAt("f", 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt("f", 0, 4)
	if err != nil || string(got) != "data" {
		t.Fatalf("ReadAt = %q, %v", got, err)
	}
	dir, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.WriteAt("g", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
}
