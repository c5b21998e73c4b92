package framework

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadSharesTypesThroughUnmatchedDependencies: matching a package
// and one of its dependencies but not the package between them (as
// `pfsim-escape ./internal/sim ./internal/mpiio` does, with
// internal/lustre in between) must still type-check — the unmatched
// middle package is checked against the same matched dependency, not a
// second copy of it — and only the matched packages are returned.
func TestLoadSharesTypesThroughUnmatchedDependencies(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":       "module fixture\n\ngo 1.24\n",
		"base/base.go": "package base\n\ntype Signal struct{ n int }\n\nfunc New() *Signal { return &Signal{} }\n",
		"mid/mid.go":   "package mid\n\nimport \"fixture/base\"\n\nfunc Make() *base.Signal { return base.New() }\n",
		"top/top.go":   "package top\n\nimport (\n\t\"fixture/base\"\n\t\"fixture/mid\"\n)\n\nvar S *base.Signal = mid.Make()\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir, []string{"./base", "./top"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].ImportPath != "fixture/base" || pkgs[1].ImportPath != "fixture/top" {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.ImportPath)
		}
		t.Errorf("loaded %v, want [fixture/base fixture/top]", got)
	}
}
