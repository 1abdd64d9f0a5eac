package shim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/sgx"
	"montsalvat/internal/simcfg"
)

// fsContract exercises the FS interface against any implementation.
func fsContract(t *testing.T, fs FS) {
	t.Helper()

	// WriteAt creates and extends.
	if err := fs.WriteAt("a.txt", 0, []byte("hello")); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := fs.WriteAt("a.txt", 10, []byte("world")); err != nil {
		t.Fatalf("WriteAt extend: %v", err)
	}
	size, err := fs.Size("a.txt")
	if err != nil || size != 15 {
		t.Fatalf("Size = %d, %v; want 15", size, err)
	}
	// The gap reads as zeros.
	got, err := fs.ReadAt("a.txt", 0, 15)
	if err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	want := append([]byte("hello"), 0, 0, 0, 0, 0)
	want = append(want, []byte("world")...)
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadAt = %q, want %q", got, want)
	}

	// Append returns the previous size.
	off, err := fs.Append("a.txt", []byte("!!"))
	if err != nil || off != 15 {
		t.Fatalf("Append = %d, %v; want 15", off, err)
	}

	// Missing files.
	if _, err := fs.ReadAt("nope", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAt missing: %v", err)
	}
	if _, err := fs.Size("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size missing: %v", err)
	}
	if err := fs.Remove("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove missing: %v", err)
	}

	// List + Remove.
	if err := fs.WriteAt("b.txt", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List()
	if err != nil || len(names) != 2 || names[0] != "a.txt" || names[1] != "b.txt" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := fs.Remove("b.txt"); err != nil {
		t.Fatal(err)
	}
	names, _ = fs.List()
	if len(names) != 1 {
		t.Fatalf("List after remove = %v", names)
	}

	// Read past EOF fails.
	if _, err := fs.ReadAt("a.txt", 16, 10); err == nil {
		t.Fatal("read past EOF accepted")
	}
}

func TestMemFSContract(t *testing.T) {
	fsContract(t, NewMemFS())
}

func TestDirFSContract(t *testing.T) {
	fs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fsContract(t, fs)
}

// newDirFS is a DirFS on a fresh temp dir whose handles close with the
// test.
func newDirFS(t *testing.T) (*DirFS, string) {
	t.Helper()
	root := t.TempDir()
	fs, err := NewDirFS(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs, root
}

// TestDirFSAppendAcrossRemove pins the tracked append offset: it
// restarts at zero for a file removed and created again, and it agrees
// with the host file.
func TestDirFSAppendAcrossRemove(t *testing.T) {
	fs, root := newDirFS(t)
	for i, want := range []int64{0, 3, 6} {
		if off, err := fs.Append("seg", []byte("abc")); err != nil || off != want {
			t.Fatalf("append %d = %d, %v; want %d", i, off, err, want)
		}
	}
	if err := fs.Remove("seg"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Size("seg"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size after Remove: %v, want ErrNotFound", err)
	}
	if off, err := fs.Append("seg", []byte("xy")); err != nil || off != 0 {
		t.Fatalf("append after Remove = %d, %v; want 0", off, err)
	}
	if off, err := fs.Append("seg", []byte("z")); err != nil || off != 2 {
		t.Fatalf("second append after Remove = %d, %v; want 2", off, err)
	}
	host, err := os.ReadFile(filepath.Join(root, "seg"))
	if err != nil || string(host) != "xyz" {
		t.Fatalf("host file = %q, %v; want \"xyz\"", host, err)
	}
}

// TestDirFSSizeTracksWrites checks the tracked size against WriteAt:
// a write past the end extends it, one inside leaves it, and an Append
// lands after the extended end.
func TestDirFSSizeTracksWrites(t *testing.T) {
	fs, _ := newDirFS(t)
	steps := []struct {
		off  int64
		data string
		size int64
	}{{0, "hello", 5}, {10, "world", 15}, {2, "LL", 15}}
	for _, st := range steps {
		if err := fs.WriteAt("f", st.off, []byte(st.data)); err != nil {
			t.Fatal(err)
		}
		if size, err := fs.Size("f"); err != nil || size != st.size {
			t.Fatalf("Size after WriteAt(%d, %q) = %d, %v; want %d", st.off, st.data, size, err, st.size)
		}
	}
	if off, err := fs.Append("f", []byte("!")); err != nil || off != 15 {
		t.Fatalf("Append = %d, %v; want 15", off, err)
	}
	got, err := fs.ReadAt("f", 0, 16)
	if err != nil || string(got) != "heLLo\x00\x00\x00\x00\x00world!" {
		t.Fatalf("ReadAt = %q, %v", got, err)
	}
}

// TestDirFSMissingFile checks that reads never create: ReadAt and Size
// of a missing file are ErrNotFound and leave nothing behind.
func TestDirFSMissingFile(t *testing.T) {
	fs, root := newDirFS(t)
	if _, err := fs.ReadAt("p/nope", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAt missing: %v, want ErrNotFound", err)
	}
	if _, err := fs.Size("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size missing: %v, want ErrNotFound", err)
	}
	if _, err := fs.ReadAt("nope", 0, -1); err == nil {
		t.Fatal("negative read length accepted")
	}
	entries, err := os.ReadDir(root)
	if err != nil || len(entries) != 0 {
		t.Fatalf("root after failed reads = %v, %v; want empty", entries, err)
	}
}

// TestDirFSCreatesParents checks that the first write of a prefixed
// name makes the directory, and that List stays root-only.
func TestDirFSCreatesParents(t *testing.T) {
	fs, root := newDirFS(t)
	if _, err := fs.Append("p/wal-00000001.seg", []byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("p/q/ckpt", 4, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(filepath.Join(root, "p", "wal-00000001.seg")); err != nil || string(b) != "rec" {
		t.Fatalf("host segment = %q, %v", b, err)
	}
	if size, err := fs.Size("p/q/ckpt"); err != nil || size != 5 {
		t.Fatalf("Size = %d, %v; want 5", size, err)
	}
	if names, err := fs.List(); err != nil || len(names) != 0 {
		t.Fatalf("List = %v, %v; want the root's files only (none)", names, err)
	}
}

// TestDirFSConcurrentAppends races appenders on two files: every
// record lands whole at a distinct offset (run under -race in make
// test).
func TestDirFSConcurrentAppends(t *testing.T) {
	fs, _ := newDirFS(t)
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("f%d", w%2)
			for i := 0; i < each; i++ {
				if _, err := fs.Append(name, []byte("0123456789")); err != nil {
					t.Error(err)
					return
				}
				if _, err := fs.Size(name); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, name := range []string{"f0", "f1"} {
		if size, err := fs.Size(name); err != nil || size != writers/2*each*10 {
			t.Fatalf("%s size = %d, %v; want %d", name, size, err, writers/2*each*10)
		}
	}
}

func TestDirFSRejectsTraversal(t *testing.T) {
	fs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../evil", "/abs", ""} {
		if err := fs.WriteAt(name, 0, []byte("x")); err == nil {
			t.Fatalf("accepted path %q", name)
		}
	}
}

func TestDirFSRequiresDirectory(t *testing.T) {
	if _, err := NewDirFS("/nonexistent-montsalvat-dir"); err == nil {
		t.Fatal("accepted missing root")
	}
}

func testEnclave(t *testing.T) *sgx.Enclave {
	t.Helper()
	clk := cycles.New(simcfg.CPUHz)
	e, err := sgx.Create(simcfg.Default(), clk, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddPages([]byte("img")); err != nil {
		t.Fatal(err)
	}
	signer, err := sgx.DefaultSigner()
	if err != nil {
		t.Fatal(err)
	}
	ss, err := signer.Sign(e.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Init(ss); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTrustedShimRelaysOcalls(t *testing.T) {
	e := testEnclave(t)
	host := NewMemFS()
	ts := NewTrustedShim(e, host)

	// Shim calls are only legal from enclave code.
	err := e.Ecall(1, func() error {
		if err := ts.WriteAt("secret.db", 0, []byte("ciphertext")); err != nil {
			return err
		}
		data, err := ts.ReadAt("secret.db", 0, 10)
		if err != nil {
			return err
		}
		if string(data) != "ciphertext" {
			t.Errorf("read %q", data)
		}
		if _, err := ts.Append("secret.db", []byte("++")); err != nil {
			return err
		}
		size, err := ts.Size("secret.db")
		if err != nil {
			return err
		}
		if size != 12 {
			t.Errorf("size = %d", size)
		}
		names, err := ts.List()
		if err != nil {
			return err
		}
		if len(names) != 1 {
			t.Errorf("names = %v", names)
		}
		return ts.Remove("secret.db")
	})
	if err != nil {
		t.Fatal(err)
	}

	st := ts.Stats()
	if st.Ocalls != 6 {
		t.Fatalf("shim ocalls = %d, want 6", st.Ocalls)
	}
	if st.BytesOut != 12 { // 10-byte write + 2-byte append
		t.Fatalf("BytesOut = %d, want 12", st.BytesOut)
	}
	if st.BytesIn < 10 {
		t.Fatalf("BytesIn = %d, want >= 10", st.BytesIn)
	}
	es := e.Stats()
	if es.Ocalls != 6 {
		t.Fatalf("enclave ocalls = %d, want 6", es.Ocalls)
	}
	if es.OcallsByID[OcallWriteAt] != 1 || es.OcallsByID[OcallReadAt] != 1 {
		t.Fatalf("per-id ocalls = %v", es.OcallsByID)
	}
}

func TestTrustedShimOutsideEnclaveFails(t *testing.T) {
	e := testEnclave(t)
	ts := NewTrustedShim(e, NewMemFS())
	if err := ts.WriteAt("x", 0, []byte("y")); !errors.Is(err, sgx.ErrOcallOutside) {
		t.Fatalf("err = %v, want ErrOcallOutside", err)
	}
}

func TestTrustedShimChargesTransitionCost(t *testing.T) {
	e := testEnclave(t)
	ts := NewTrustedShim(e, NewMemFS())
	clk := e.Clock()
	before := clk.Total()
	err := e.Ecall(1, func() error {
		return ts.WriteAt("f", 0, make([]byte, 4096))
	})
	if err != nil {
		t.Fatal(err)
	}
	charged := clk.Total() - before
	// At least the ecall + ocall transitions plus the 4 KB boundary copy.
	min := int64(simcfg.EcallCycles + simcfg.OcallCycles + 4096)
	if charged < min {
		t.Fatalf("charged %d cycles, want >= %d", charged, min)
	}
}

func TestTrustedShimPropagatesErrors(t *testing.T) {
	e := testEnclave(t)
	ts := NewTrustedShim(e, NewMemFS())
	err := e.Ecall(1, func() error {
		_, err := ts.ReadAt("missing", 0, 4)
		return err
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}
