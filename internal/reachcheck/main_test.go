package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestNormalize(t *testing.T) {
	for in, want := range map[string]string{
		"backuppower/internal/grid.Compile":                                          "backuppower/internal/grid.Compile",
		"backuppower/internal/sweep.Map[go.shape.int,go.shape.string]":               "backuppower/internal/sweep.Map",
		"p.Map[go.shape.struct { X []p.T[int]; Y map[string][2]p.U[go.shape.int] }]": "p.Map",
		"p.(*Cache[go.shape.string,go.shape.struct {}]).Get":                         "p.(*Cache).Get",
		"p.Pair[go.shape.int].Swap":                                                  "p.Pair.Swap",
		"p.(*Disk).Get":                                                              "p.(*Disk).Get",
		"p.Run[go.shape.int].func1":                                                  "p.Run.func1",
	} {
		if got := normalize(in); got != want {
			t.Errorf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSymbolOf(t *testing.T) {
	const src = `package p
func F() {}
func (d *Disk) Get() {}
func (s Stats) Total() {}
func (c *Cache[K, V]) Put() {}
func (p Pair[T]) Swap() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		got = append(got, symbolOf("example.com/p", d.(*ast.FuncDecl)))
	}
	want := []string{
		"example.com/p.F",
		"example.com/p.(*Disk).Get",
		"example.com/p.Stats.Total",
		"example.com/p.(*Cache).Put",
		"example.com/p.Pair.Swap",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("symbols %v, want %v", got, want)
	}
}

// A "main.X" symbol counts only for the binary built from X's own
// package: every command's helpers share the "main." prefix.
func TestMainSymbolsMatchPerBinary(t *testing.T) {
	linked := linkedSet{main: map[string]map[string]bool{}, shared: map[string]bool{}}
	linked.addNM("m/cmd/a", strings.NewReader(`
  4a1000 T main.main
  4a1100 T main.helper
  4a1200 t m/internal/lib.(*Store[go.shape.int]).Get
  5b0000 D main.flagVar
  4a1300 U main.undefined
`))
	linked.addNM("m/cmd/b", strings.NewReader("  4a1000 T main.main\n"))

	decls := []decl{
		{pkg: "m/cmd/a", sym: "main.helper", pos: "cmd/a/main.go:3"},
		{pkg: "m/cmd/b", sym: "main.helper", pos: "cmd/b/main.go:3"},
		{pkg: "m/cmd/a", sym: "main.flagVar", pos: "cmd/a/main.go:9"},
		{pkg: "m/internal/lib", sym: "m/internal/lib.(*Store).Get", pos: "internal/lib/lib.go:5"},
		{pkg: "m/internal/lib", sym: "m/internal/lib.Unused", pos: "internal/lib/lib.go:9"},
		{pkg: "m/internal/lib", sym: "m/internal/lib.Seam", pos: "internal/lib/lib.go:12"},
	}
	allow := map[string]string{
		"m/internal/lib.Seam": "test seam",
		"m/internal/lib.Gone": "deleted since",
	}
	dead, stale := check(decls, linked, allow)
	var got []string
	for _, d := range dead {
		got = append(got, d.key())
	}
	want := []string{"m/cmd/a.flagVar", "m/cmd/b.helper", "m/internal/lib.Unused"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unlinked %v, want %v", got, want)
	}
	if len(stale) != 1 || stale[0] != "m/internal/lib.Gone" {
		t.Errorf("stale allowlist entries %v, want [m/internal/lib.Gone]", stale)
	}
}

func TestParseAllowlist(t *testing.T) {
	allow, err := parseAllowlist("# comment\n\np.F test reference: TestF\n")
	if err != nil || allow["p.F"] != "test reference: TestF" || len(allow) != 1 {
		t.Fatalf("parseAllowlist = %v, %v", allow, err)
	}
	if _, err := parseAllowlist("p.F\n"); err == nil {
		t.Fatal("an entry without a reason was accepted")
	}
}
