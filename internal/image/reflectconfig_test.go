package image

import (
	"errors"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/wire"
)

// reflectProgram has a main plus a method that is only reachable
// dynamically (no static call edge).
func reflectProgram(t *testing.T) *classmodel.Program {
	t.Helper()
	p := classmodel.NewProgram()
	c := classmodel.NewClass("App", classmodel.Neutral)
	if err := c.AddMethod(&classmodel.Method{
		Name: classmodel.MainMethodName, Static: true, Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddMethod(&classmodel.Method{
		Name: "invokedReflectively", Static: true, Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Int(99), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddMethod(&classmodel.Method{
		Name: "alsoDynamic", Static: true, Public: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(c); err != nil {
		t.Fatal(err)
	}
	p.MainClass = "App"
	return p
}

func TestReflectionRootForcedIn(t *testing.T) {
	p := reflectProgram(t)
	// Without a config, the dynamic method is pruned.
	plain, err := Build(UntrustedImage, p)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MethodCompiled(classmodel.MethodRef{Class: "App", Method: "invokedReflectively"}) {
		t.Fatal("dynamic method kept without reflection config")
	}
	// With the config, it is always included (§2.2).
	img, err := BuildWithConfig(UntrustedImage, p, Config{
		ExtraRoots: []classmodel.MethodRef{{Class: "App", Method: "invokedReflectively"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !img.MethodCompiled(classmodel.MethodRef{Class: "App", Method: "invokedReflectively"}) {
		t.Fatal("reflection root pruned")
	}
	// The measurement reflects the larger image.
	if img.Measurement() == plain.Measurement() {
		t.Fatal("reflection root did not change the image")
	}
}

func TestBuildWithConfigRejectsUnknownRoot(t *testing.T) {
	p := reflectProgram(t)
	_, err := BuildWithConfig(UntrustedImage, p, Config{
		ExtraRoots: []classmodel.MethodRef{{Class: "Ghost", Method: "x"}},
	})
	if !errors.Is(err, ErrClosedWorld) {
		t.Fatalf("err = %v, want ErrClosedWorld", err)
	}
}
