package paldb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"montsalvat/internal/shim"
)

func buildStore(t *testing.T, fs shim.FS, name string, kv map[string]string) {
	t.Helper()
	w, err := NewWriter(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range kv {
		if err := w.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := shim.NewMemFS()
	kv := map[string]string{
		"alpha": "one",
		"beta":  "two",
		"gamma": "a much longer value with some structure 0123456789",
		"":      "empty key is legal",
	}
	buildStore(t, fs, "store.paldb", kv)

	r, err := Open(fs, "store.paldb")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := binary.LittleEndian.Uint64(r.data[8:]); got != uint64(len(kv)) {
		t.Fatalf("header record count = %d, want %d", got, len(kv))
	}
	for k, v := range kv {
		got, err := r.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("Get(%q) = %q, want %q", k, got, v)
		}
	}
	if _, err := r.Get([]byte("missing")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	st := r.Stats()
	if st.Gets != len(kv)+1 || st.Hits != len(kv) {
		t.Fatalf("reader stats: %+v", st)
	}
}

func TestWriteOnceSemantics(t *testing.T) {
	fs := shim.NewMemFS()
	w, err := NewWriter(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Put([]byte("k"), []byte("v2")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Put([]byte("late"), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestEachPutIsOneWrite(t *testing.T) {
	// PalDB does regular I/O per write: the write-op count (= ocalls
	// when trusted) must scale with the number of puts.
	fs := shim.NewMemFS()
	w, err := NewWriter(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := w.Put([]byte("key"+strconv.Itoa(i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Puts != n {
		t.Fatalf("Puts = %d", st.Puts)
	}
	// header + n puts + index + final header.
	if st.WriteOps != n+3 {
		t.Fatalf("WriteOps = %d, want %d", st.WriteOps, n+3)
	}
}

func TestReaderIsMmapStyle(t *testing.T) {
	fs := shim.NewMemFS()
	kv := map[string]string{}
	for i := 0; i < 50; i++ {
		kv["k"+strconv.Itoa(i)] = "v" + strconv.Itoa(i)
	}
	buildStore(t, fs, "db", kv)
	r, err := Open(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	size, _ := fs.Size("db")
	if r.Stats().MappedBytes != size {
		t.Fatalf("MappedBytes = %d, want %d", r.Stats().MappedBytes, size)
	}
	// Reads must touch only a small portion of the map per get.
	if _, err := r.Get([]byte("k7")); err != nil {
		t.Fatal(err)
	}
	if r.Stats().BytesAccessed >= size/2 {
		t.Fatalf("Get scanned the file: %d of %d bytes", r.Stats().BytesAccessed, size)
	}
}

func TestTouchHook(t *testing.T) {
	fs := shim.NewMemFS()
	buildStore(t, fs, "db", map[string]string{"a": "b"})
	r, err := Open(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	var touched int
	r.SetTouch(func(n int) { touched += n })
	if _, err := r.Get([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if touched == 0 {
		t.Fatal("touch hook not invoked")
	}
	if int64(touched) != r.Stats().BytesAccessed {
		t.Fatalf("touch %d != stats %d", touched, r.Stats().BytesAccessed)
	}
}

func TestOpenErrors(t *testing.T) {
	fs := shim.NewMemFS()
	if _, err := Open(fs, "absent"); !errors.Is(err, shim.ErrNotFound) {
		t.Fatalf("absent: %v", err)
	}
	if err := fs.WriteAt("tiny", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fs, "tiny"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tiny: %v", err)
	}
	if err := fs.WriteAt("badmagic", 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fs, "badmagic"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("badmagic: %v", err)
	}
}

func TestNewWriterTruncatesExisting(t *testing.T) {
	fs := shim.NewMemFS()
	buildStore(t, fs, "db", map[string]string{"old": "data"})
	buildStore(t, fs, "db", map[string]string{"new": "data"})
	r, err := Open(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get([]byte("old")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("old key survived rebuild: %v", err)
	}
	if _, err := r.Get([]byte("new")); err != nil {
		t.Fatal(err)
	}
}

func TestLargeStoreOnDirFS(t *testing.T) {
	fs, err := shim.NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(fs, "big.paldb")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		val := bytes.Repeat([]byte{byte(i)}, 32)
		if err := w.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fs, "big.paldb")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 999, 1998, 1999} {
		got, err := r.Get([]byte(fmt.Sprintf("key-%06d", i)))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 32)) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

// Property: an arbitrary key/value set round-trips through the store.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := shim.NewMemFS()
		n := 1 + rng.Intn(60)
		kv := make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := make([]byte, rng.Intn(24))
			rng.Read(k)
			v := make([]byte, rng.Intn(128))
			rng.Read(v)
			kv[string(k)] = string(v)
		}
		w, err := NewWriter(fs, "q")
		if err != nil {
			return false
		}
		for k, v := range kv {
			if err := w.Put([]byte(k), []byte(v)); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := Open(fs, "q")
		if err != nil {
			return false
		}
		for k, v := range kv {
			got, err := r.Get([]byte(k))
			if err != nil || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
