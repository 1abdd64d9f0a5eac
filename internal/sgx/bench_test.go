package sgx

import (
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/simcfg"
)

var sinkBlob []byte

// BenchmarkSeal128 seals one WAL-record-sized payload, as persist does
// per commit.
func BenchmarkSeal128(b *testing.B) {
	b.ReportAllocs()
	e, err := Create(simcfg.Default(), cycles.New(simcfg.CPUHz), 4)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.AddPages([]byte("image")); err != nil {
		b.Fatal(err)
	}
	signer, err := DefaultSigner()
	if err != nil {
		b.Fatal(err)
	}
	ss, err := signer.Sign(e.Measurement())
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Init(ss); err != nil {
		b.Fatal(err)
	}
	secret, err := NewPlatformSecret()
	if err != nil {
		b.Fatal(err)
	}
	plain := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := e.Seal(secret, SealToMRSIGNER, plain, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkBlob = blob
	}
}
