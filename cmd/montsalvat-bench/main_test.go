package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"montsalvat/internal/bench"
)

func TestList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig3", "fig12", "table1", "ablation-tcb"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list missing %s:\n%s", want, out)
		}
	}
}

func TestSingleExperimentQuick(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "table1", "-quick", "-spin=false"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "gain over SCONE+JVM") || !strings.Contains(out, "montecarlo") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestProfileDispatch(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-profile-dispatch", "-quick", "-spin=false"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"dispatch profile",
		"boundary calls by route",
		"montsalvat_boundary_dispatch_ns",
		"KVStore.relay$put",
		"AuditLog.relay$record",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("profile missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig99"}, &sb); err == nil {
		t.Fatal("accepted unknown experiment")
	}
}

func TestBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &sb); err == nil {
		t.Fatal("accepted unknown flag")
	}
}

func TestCSVFormat(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "ablation-tcb", "-quick", "-spin=false", "-format", "csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# ablation-tcb:", "series,classes,methods", "partitioned+shim,"} {
		if !strings.Contains(out, want) {
			t.Fatalf("csv missing %q:\n%s", want, out)
		}
	}
}

func TestBadFormat(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-format", "yaml"}, &sb); err == nil {
		t.Fatal("accepted bad format")
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig5a", "-quick", "-spin=false", "-cpuprofile", cpu, "-memprofile", mem}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "GC-in") {
		t.Fatalf("experiment did not run:\n%s", sb.String())
	}
	for _, path := range []string{cpu, mem} {
		// Profiles are gzip streams.
		b, err := os.ReadFile(path)
		if err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Fatalf("%s: %d bytes, %v: not a profile", path, len(b), err)
		}
	}
	if err := run([]string{"-list", "-cpuprofile", filepath.Join(dir, "missing", "cpu.prof")}, &sb); err != nil {
		t.Fatalf("-list must not open profiles: %v", err)
	}
	if err := run([]string{"-experiment", "fig5a", "-quick", "-spin=false", "-cpuprofile", filepath.Join(dir, "missing", "cpu.prof")}, &sb); err == nil {
		t.Fatal("accepted an unwritable -cpuprofile path")
	}
}

// TestAppendEntryKeepsHistory: appending to a recorded trajectory writes
// back every entry already there byte for byte, for each of the five
// suites, and a missing file starts a fresh trajectory.
func TestAppendEntryKeepsHistory(t *testing.T) {
	keepsHistory(t, "BENCH_rmi.json", bench.RMIPerfSchema, bench.RMIPerfEntry{Label: "appended"})
	keepsHistory(t, "BENCH_persist.json", bench.RecoveryPerfSchema, bench.RecoveryPerfEntry{Label: "appended"})
	keepsHistory(t, "BENCH_fabric.json", bench.FabricPerfSchema, bench.FabricPerfEntry{Label: "appended"})
	keepsHistory(t, "BENCH_obs.json", bench.ObsPerfSchema, bench.ObsPerfEntry{Label: "appended"})
	keepsHistory(t, "BENCH_orderly.json", bench.OrderlyPerfSchema, bench.OrderlyPerfEntry{Label: "appended"})

	fresh := filepath.Join(t.TempDir(), "BENCH_new.json")
	if err := appendEntry(fresh, bench.ObsPerfSchema, bench.ObsPerfEntry{Label: "first"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	var file trajectory[bench.ObsPerfEntry]
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.Schema != bench.ObsPerfSchema || len(file.Entries) != 1 || file.Entries[0].Label != "first" {
		t.Fatalf("fresh trajectory = %+v", file)
	}
}

func keepsHistory[E any](t *testing.T, name, schema string, entry E) {
	t.Helper()
	recorded, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, recorded, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendEntry(path, schema, entry); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file trajectory[E]
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if file.Schema != schema || len(file.Entries) < 2 {
		t.Fatalf("%s: schema %q, %d entries after the append", name, file.Schema, len(file.Entries))
	}
	// Without the appended entry the file is the recorded one again.
	file.Entries = file.Entries[:len(file.Entries)-1]
	enc, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(enc, '\n'), recorded) {
		t.Fatalf("%s does not re-encode byte-identically", name)
	}
}
