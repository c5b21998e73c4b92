package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEscapeCanned: the canned diagnostics carry three escapes — one in
// the hot region (line 16, unannotated: reported), one suppressed by a
// line //pfsim:allocok (line 17), one in a cold function (line 29) —
// plus inline and leak chatter the matcher must ignore.
func TestEscapeCanned(t *testing.T) {
	var b strings.Builder
	findings, err := run(&b, "testdata/mod", "testdata/diag.txt", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if findings != 1 {
		t.Errorf("findings = %d, want 1:\n%s", findings, b.String())
	}
	const want = "hot/hot.go:16:7: &Record{...} escapes to heap inside //pfsim:hotpath region Grow (reached from Grow); annotate //pfsim:allocok <why> or move the allocation off the hot path\n"
	if b.String() != want {
		t.Errorf("output drifted.\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestEscapeHotCallee: a diagnostic inside a function reached from a
// root (not itself annotated) still lands in a hot region, attributed
// to the root it was reached from.
func TestEscapeHotCallee(t *testing.T) {
	var b strings.Builder
	findings, err := run(&b, "testdata/mod",
		writeDiag(t, "hot/hot.go:25:2: new(int) escapes to heap\n"), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if findings != 1 || !strings.Contains(b.String(), "region fill (reached from Grow)") {
		t.Errorf("findings = %d, output:\n%s", findings, b.String())
	}
}

// TestEscapeNoRoots: a package set without //pfsim:hotpath roots must
// error (exit 2 in main) instead of passing vacuously.
func TestEscapeNoRoots(t *testing.T) {
	_, err := run(&strings.Builder{}, "../pfsim-lint/testdata/mod", "testdata/diag.txt", []string{"./clean"})
	if err == nil || !strings.Contains(err.Error(), "no //pfsim:hotpath roots") {
		t.Errorf("want no-roots error, got %v", err)
	}
}

// TestEscapeNamedPackageWithoutRoots: a package named on its own (no
// "..."), by directory or import path, that has no //pfsim:hotpath roots
// must error even when another named package has roots. TestEscapeCanned
// reaches the same package through ./... and passes.
func TestEscapeNamedPackageWithoutRoots(t *testing.T) {
	_, err := run(&strings.Builder{}, "testdata/mod", "testdata/diag.txt", []string{"./hot", "./cold"})
	if err == nil || !strings.Contains(err.Error(), "no //pfsim:hotpath roots found in ./cold") {
		t.Errorf("want named-package no-roots error, got %v", err)
	}
	_, err = run(&strings.Builder{}, "testdata/mod", "testdata/diag.txt", []string{"escfixture/cold", "./hot"})
	if err == nil || !strings.Contains(err.Error(), "escfixture/cold") {
		t.Errorf("want named-package no-roots error by import path, got %v", err)
	}
}

// writeDiag stores canned diagnostics in a temp file.
func writeDiag(t *testing.T, content string) string {
	t.Helper()
	f := filepath.Join(t.TempDir(), "diag.txt")
	if err := os.WriteFile(f, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}
