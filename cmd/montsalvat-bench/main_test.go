package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
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
	if err := run([]string{"-experiment", "table1", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "gain over SCONE+JVM") || !strings.Contains(out, "montecarlo") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestProfileDispatch(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-profile-dispatch", "-quick"}, &sb); err != nil {
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
	if err := run([]string{"-experiment", "ablation-tcb", "-quick", "-format", "csv"}, &sb); err != nil {
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
	if err := run([]string{"-experiment", "fig5a", "-quick", "-cpuprofile", cpu, "-memprofile", mem}, &sb); err != nil {
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
	if err := run([]string{"-experiment", "fig5a", "-quick", "-cpuprofile", filepath.Join(dir, "missing", "cpu.prof")}, &sb); err == nil {
		t.Fatal("accepted an unwritable -cpuprofile path")
	}
}

// TestJSONRecordsSelectedExperiment: -json records exactly the
// experiments -experiment selects, each as the experiment's own table.
func TestJSONRecordsSelectedExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	var sb strings.Builder
	if err := run([]string{"-json", path, "-label", "t", "-experiment", "fig5a", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	recs := readTrajectory(t, path)
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Label != "t" || !rec.Quick || rec.GoMaxProcs < 1 || rec.Table == nil || rec.Table.ID != "fig5a" {
		t.Fatalf("record = %+v", rec)
	}
	want, err := bench.Fig5a(bench.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	got := rec.Table
	if !reflect.DeepEqual(got.Columns, want.Columns) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("recorded table %+v, want the shape of %+v", got, want)
	}
	// Values fold host time in; the row names, the value counts and
	// the cycle ledger repeat exactly.
	for i, w := range want.Rows {
		g := got.Rows[i]
		if g.Name != w.Name || len(g.Values) != len(w.Values) || !reflect.DeepEqual(g.Cycles, w.Cycles) {
			t.Errorf("row %d = %s %d values, cycles %v; want %s %d values, cycles %v",
				i, g.Name, len(g.Values), g.Cycles, w.Name, len(w.Values), w.Cycles)
		}
	}
}

// TestRecordedTrajectory checks the checked-in BENCH.json: every record
// names a registered experiment and every row has one value (and, when
// it carries a ledger, one cycle count) per column. Appending to it
// keeps every earlier byte, a missing file starts a fresh trajectory and
// a file under another schema is refused.
func TestRecordedTrajectory(t *testing.T) {
	const name = "BENCH.json"
	recorded, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, recorded, 0o644); err != nil {
		t.Fatal(err)
	}
	recs := readTrajectory(t, path)
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	for i, rec := range recs {
		if rec.Label == "" || rec.Table == nil {
			t.Fatalf("record %d = %+v", i, rec)
		}
		tab := rec.Table
		if _, err := bench.ByID(tab.ID); err != nil {
			t.Errorf("record %d (%s): %v", i, rec.Label, err)
		}
		for _, r := range tab.Rows {
			if len(r.Values) != len(tab.Columns) || (r.Cycles != nil && len(r.Cycles) != len(tab.Columns)) {
				t.Errorf("record %d (%s %s) row %q: %d values, %d cycles for %d columns",
					i, rec.Label, tab.ID, r.Name, len(r.Values), len(r.Cycles), len(tab.Columns))
			}
		}
	}

	tab := &bench.Table{ID: "fig3", Columns: []string{"1"}}
	tab.AddRow("appended", 1)
	if err := appendRecord(path, record{Label: "appended", Table: tab}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Only the closing of the records list moves.
	kept := bytes.TrimSuffix(recorded, []byte("\n  ]\n}\n"))
	if len(kept) == len(recorded) || !bytes.HasPrefix(raw, kept) {
		t.Fatalf("%s: the append did not keep the recorded bytes", name)
	}
	if got := readTrajectory(t, path); len(got) != len(recs)+1 || got[len(recs)].Label != "appended" {
		t.Fatalf("%d records after the append, want %d", len(got), len(recs)+1)
	}
	// Runs recorded while the clock still had a busy-wait mode carry a
	// "spin" key, kept by the append above; a new record has none.
	var keyed struct {
		Records []map[string]json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(raw, &keyed); err != nil {
		t.Fatal(err)
	}
	spun := false
	for _, r := range keyed.Records[:len(recs)] {
		spun = spun || string(r["spin"]) == "true"
	}
	if _, ok := keyed.Records[len(recs)]["spin"]; !spun || ok {
		t.Fatalf("%s: an old record with \"spin\": true = %v, the appended record has a spin key = %v", name, spun, ok)
	}

	fresh := filepath.Join(t.TempDir(), "new.json")
	if err := appendRecord(fresh, record{Label: "first", Table: tab}); err != nil {
		t.Fatal(err)
	}
	if got := readTrajectory(t, fresh); len(got) != 1 || got[0].Label != "first" {
		t.Fatalf("fresh trajectory = %+v", got)
	}

	old := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(old, []byte(`{"schema": "montsalvat-bench-rmi/v1", "entries": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(old, record{Label: "x", Table: tab}); err == nil {
		t.Fatal("appended to a file under another schema")
	}
}

// readTrajectory decodes the records of a trajectory file, checking its
// schema.
func readTrajectory(t *testing.T, path string) []record {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Schema  string   `json:"schema"`
		Records []record `json:"records"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if file.Schema != schema {
		t.Fatalf("%s: schema %q, want %q", path, file.Schema, schema)
	}
	return file.Records
}
