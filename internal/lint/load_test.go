package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTree lays out a throwaway module for loader tests.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestExpandSkipsTestdataAndGenerated: a module walk must not descend
// into testdata trees (fixture packages do not even type-check against
// the module) and must not analyze `// Code generated` files.
func TestExpandSkipsTestdataAndGenerated(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                    "module tmpmod\n",
		"a/a.go":                    "package a\n\nfunc A() int { return 1 }\n",
		"a/gen.go":                  "// Code generated by tmpgen; DO NOT EDIT.\n\npackage a\n\nfunc Gen() int { return 2 }\n",
		"a/testdata/src/fix/fix.go": "package fix\n\nfunc Broken() { undefinedSymbol() }\n",
	})
	pkgs, err := NewLoader(root, "tmpmod").Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "tmpmod/a" {
		t.Fatalf("expected just tmpmod/a, got %v", pkgNames(pkgs))
	}
	if len(pkgs[0].Files) != 1 {
		t.Errorf("generated file leaked into the analyzed set: %d files", len(pkgs[0].Files))
	}
	// The generated file's symbols must still type-check for siblings.
	if pkgs[0].Types.Scope().Lookup("Gen") == nil {
		t.Error("generated file was dropped from type-checking, not just from analysis")
	}
}

// TestLoadDirUsesGeneratedSymbols: a non-generated file may depend on a
// generated sibling; skipping the sibling from type-checking would make
// the package unloadable.
func TestLoadDirUsesGeneratedSymbols(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":   "module tmpmod\n",
		"b/b.go":   "package b\n\nfunc B() int { return gen() }\n",
		"b/gen.go": "// Code generated by tmpgen; DO NOT EDIT.\n\npackage b\n\nfunc gen() int { return 7 }\n",
	})
	pkg, err := NewLoader(root, "tmpmod").LoadDir(filepath.Join(root, "b"), "tmpmod/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Errorf("analyzed set should hold only b.go, got %d files", len(pkg.Files))
	}
}

func TestIsGeneratedSource(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"// Code generated by stringer. DO NOT EDIT.\n\npackage x\n", true},
		{"//go:build linux\n\n// Code generated by x. DO NOT EDIT.\npackage x\n", true},
		{"package x\n\n// Code generated by x. DO NOT EDIT.\n", false}, // after the clause: not a header
		{"// Code generated manually, edit freely\npackage x\n", false},
		{"package x\n", false},
	}
	for _, c := range cases {
		if got := isGeneratedSource([]byte(c.src)); got != c.want {
			t.Errorf("isGeneratedSource(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func pkgNames(pkgs []*Package) []string {
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = p.Path
	}
	return out
}
