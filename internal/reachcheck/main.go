// Command reachcheck fails when a production function is linked into no
// binary. It builds every main package of the module and the perfbench
// harness with inlining off, lists the linked symbols with `go tool nm`,
// and compares them with the function declarations of every non-test Go
// file. A function that no binary links must either go, move into a
// _test.go file, or carry a reason in allowlist.txt.
//
//	go run ./internal/reachcheck        (make reach)
//
// Run it from the module root. It exits 1 and names each unlinked
// function, and each allowlist entry that no longer names one.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed allowlist.txt
var allowlistText string

// benchRoot is the benchmark harness, a module of its own that imports
// this one; it is built as a root but its sources are not checked.
const benchRoot = "perfbench"

// pkg is the slice of `go list -json` output the checker reads.
type pkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
}

// decl is one function declaration and the symbol the linker gives it.
type decl struct {
	pkg string // import path of the declaring package
	sym string // normalized symbol, "main.X" in a main package
	pos string // file:line
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reachcheck:", err)
		os.Exit(1)
	}
}

func run(out io.Writer) error {
	pkgs, err := listPackages()
	if err != nil {
		return err
	}
	allow, err := parseAllowlist(allowlistText)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "reachcheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var mains []string
	for _, p := range pkgs {
		if p.Name == "main" {
			mains = append(mains, p.ImportPath)
		}
	}
	// One go build writes every main package into tmp, named after the
	// last element of its import path, so each path's base must be unique.
	bins, byName := map[string]string{}, map[string]string{}
	for _, m := range mains {
		name := filepath.Base(m)
		if other, dup := byName[name]; dup {
			return fmt.Errorf("main packages %s and %s share a binary name", other, m)
		}
		byName[name] = m
		bins[m] = filepath.Join(tmp, "mod", name)
	}
	if err := goCmd("", nil, append([]string{"build", "-gcflags=all=-l", "-o", filepath.Join(tmp, "mod") + "/"}, mains...)...); err != nil {
		return err
	}
	benchBin := filepath.Join(tmp, benchRoot)
	if err := goCmd(benchRoot, nil, "build", "-gcflags=all=-l", "-o", benchBin, "."); err != nil {
		return err
	}

	linked := linkedSet{main: map[string]map[string]bool{}, shared: map[string]bool{}}
	for imp, b := range bins {
		if err := linked.add(imp, b); err != nil {
			return err
		}
	}
	if err := linked.add(benchRoot, benchBin); err != nil {
		return err
	}

	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	var decls []decl
	for _, p := range pkgs {
		ds, err := declsOf(wd, p)
		if err != nil {
			return err
		}
		decls = append(decls, ds...)
	}
	dead, stale := check(decls, linked, allow)
	for _, d := range dead {
		fmt.Fprintf(out, "%s: %s is linked into no binary\n", d.pos, d.key())
	}
	for _, s := range stale {
		fmt.Fprintf(out, "allowlist.txt: %s names no unlinked function; remove the entry\n", s)
	}
	if len(dead)+len(stale) > 0 {
		return fmt.Errorf("%d unlinked functions, %d stale allowlist entries", len(dead), len(stale))
	}
	fmt.Fprintf(out, "reachcheck: %d functions in %d packages, all linked by %d binaries (%d allowlisted)\n",
		len(decls), len(pkgs), len(bins)+1, len(allow))
	return nil
}

// key names a declaration in messages and in the allowlist: the symbol,
// with a main package's "main." replaced by its import path.
func (d decl) key() string {
	if rest, ok := strings.CutPrefix(d.sym, "main."); ok {
		return d.pkg + "." + rest
	}
	return d.sym
}

// linkedSet holds the normalized text symbols of the built binaries.
// A main package's symbols all read "main.X", so they are kept per
// binary; every other package's symbols are shared.
type linkedSet struct {
	main   map[string]map[string]bool // root import path → main.X symbols
	shared map[string]bool
}

func (l linkedSet) add(root, bin string) error {
	var buf bytes.Buffer
	cmd := exec.Command("go", "tool", "nm", bin)
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go tool nm %s: %w", root, err)
	}
	l.addNM(root, &buf)
	return nil
}

// addNM records the text symbols of one binary's `go tool nm` listing.
func (l linkedSet) addNM(root string, r io.Reader) {
	own := l.main[root]
	if own == nil {
		own = map[string]bool{}
		l.main[root] = own
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		// "<addr> <type> <name>"; the name may itself hold spaces.
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		sym := normalize(f[2])
		if strings.HasPrefix(sym, "main.") {
			own[sym] = true
		} else {
			l.shared[sym] = true
		}
	}
}

// has reports whether d's symbol is linked; "main.X" only counts in the
// binary built from d's own package.
func (l linkedSet) has(d decl) bool {
	if strings.HasPrefix(d.sym, "main.") {
		return l.main[d.pkg][d.sym]
	}
	return l.shared[d.sym]
}

// normalize strips type arguments from a linker symbol, nested ones
// included, so every instantiation of a generic function or of a method
// on a generic type reads as its declaration:
// "p.Map[go.shape.struct { X []p.T[int] }]" → "p.Map",
// "p.(*Cache[go.shape.string]).Get" → "p.(*Cache).Get".
func normalize(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// symbolOf is the normalized linker symbol of a function declaration in
// the package with the given import path ("main" for a command).
func symbolOf(path string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return path + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		ptr, t = true, s.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	recv := t.(*ast.Ident).Name
	if ptr {
		return path + ".(*" + recv + ")." + fd.Name.Name
	}
	return path + "." + recv + "." + fd.Name.Name
}

// declsOf lists the functions a package's non-test files declare, with
// positions relative to root. Init functions, main.main, and bodiless
// (assembly) declarations are skipped.
func declsOf(root string, p pkg) ([]decl, error) {
	fset := token.NewFileSet()
	symPath := p.ImportPath
	if p.Name == "main" {
		symPath = "main"
	}
	var out []decl
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			if p.Name == "main" && fd.Recv == nil && fd.Name.Name == "main" {
				continue
			}
			pos := fset.Position(fd.Pos())
			rel, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			out = append(out, decl{pkg: p.ImportPath, sym: symbolOf(symPath, fd), pos: fmt.Sprintf("%s:%d", rel, pos.Line)})
		}
	}
	return out, nil
}

// check returns the declarations that are neither linked nor allowed,
// and the allowlist keys that name no such declaration.
func check(decls []decl, linked linkedSet, allow map[string]string) (dead []decl, stale []string) {
	used := map[string]bool{}
	for _, d := range decls {
		if linked.has(d) {
			continue
		}
		if _, ok := allow[d.key()]; ok {
			used[d.key()] = true
			continue
		}
		dead = append(dead, d)
	}
	for k := range allow {
		if !used[k] {
			stale = append(stale, k)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].pos < dead[j].pos })
	sort.Strings(stale)
	return dead, stale
}

// parseAllowlist reads "<symbol> <reason>" lines; blank lines and lines
// starting with # are skipped, and every entry must give a reason.
func parseAllowlist(text string) (map[string]string, error) {
	allow := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("allowlist.txt:%d: %s has no reason", i+1, sym)
		}
		allow[sym] = strings.TrimSpace(reason)
	}
	return allow, nil
}

func listPackages() ([]pkg, error) {
	var buf bytes.Buffer
	if err := goCmd("", &buf, "list", "-json", "./..."); err != nil {
		return nil, err
	}
	var pkgs []pkg
	dec := json.NewDecoder(&buf)
	for {
		var p pkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// goCmd runs the go tool in dir, sending stdout to out when it is set.
func goCmd(dir string, out io.Writer, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return nil
}
