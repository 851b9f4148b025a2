package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"krr/internal/trace"
)

func TestLoadTraceFromPreset(t *testing.T) {
	tr, err := loadTrace("", "zipf", 5000, 0.02, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5000 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestLoadTraceUnknownPreset(t *testing.T) {
	if _, err := loadTrace("", "nope", 0, 1, 1, false); err == nil {
		t.Fatal("unknown preset must error")
	}
}

func TestLoadTraceFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	want := &trace.Trace{Reqs: []trace.Request{
		{Key: 1, Size: 100, Op: trace.OpGet},
		{Key: 2, Size: 200, Op: trace.OpSet},
	}}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, want); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := loadTrace(path, "", 0, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Reqs[1].Size != 200 {
		t.Fatalf("loaded %v", got.Reqs)
	}
	// Capped read.
	head, err := loadTrace(path, "", 1, 1, 1, false)
	if err != nil || head.Len() != 1 {
		t.Fatalf("capped read: len=%d err=%v", head.Len(), err)
	}
}

func TestLoadTraceMissingFile(t *testing.T) {
	if _, err := loadTrace("/nonexistent/file", "", 0, 1, 1, false); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestResolveModel(t *testing.T) {
	cases := []struct {
		name, method string
		want         string
		wantErr      bool
	}{
		{"krr", "", "krr", false},
		{"krr", "backward", "krr", false},
		{"krr", "topdown", "krr-topdown", false},
		{"krr", "linear", "krr-linear", false},
		{"lru", "", "lru", false}, // alias resolves in the registry
		{"aet", "", "aet", false},
		{"sim", "", "sim", false},
		{"opt", "", "opt", false},
		{"olken", "topdown", "", true}, // -method is krr-only
		{"krr", "sideways", "", true},
		{"bogus", "", "", true},
	}
	for _, c := range cases {
		got, err := resolveModel(c.name, c.method)
		if c.wantErr != (err != nil) {
			t.Errorf("resolveModel(%q, %q): err = %v, wantErr %v", c.name, c.method, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("resolveModel(%q, %q) = %q, want %q", c.name, c.method, got, c.want)
		}
	}
}

func TestWriteModelTable(t *testing.T) {
	var sb strings.Builder
	writeModelTable(&sb)
	out := sb.String()
	for _, want := range []string{"| Model |", "| Space |", "`krr`", "`olken` (alias `lru`)", "bytes,deletes,sharded"} {
		if !strings.Contains(out, want) {
			t.Errorf("model table missing %q:\n%s", want, out)
		}
	}
}
