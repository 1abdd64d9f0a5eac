package wire

import "testing"

var (
	sinkValue  Value
	sinkValues []Value
)

// orElse is the shape of the engine's value plumbing: look at the kind,
// hand one of two values on.
//
//go:noinline
func orElse(v, fallback Value) Value {
	if v.IsNull() {
		return fallback
	}
	return v
}

// BenchmarkValueCopy passes two Values into and one out of a call that is
// not inlined: what every Env method, field access and decode step pays
// per argument and result.
func BenchmarkValueCopy(b *testing.B) {
	b.ReportAllocs()
	v, fallback := Str("user:0001"), Int(7)
	for i := 0; i < b.N; i++ {
		v = orElse(v, fallback)
	}
	sinkValue = v
}

func BenchmarkUnmarshalPutArgs(b *testing.B) {
	b.ReportAllocs()
	buf := MarshalList([]Value{Str("user:0001"), Str("session-token-0001")})
	for i := 0; i < b.N; i++ {
		vs, err := UnmarshalList(buf)
		if err != nil {
			b.Fatal(err)
		}
		sinkValues = vs
	}
}
