package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// deadExport is the name //lint:allow comments use to keep an exported
// function that no production code calls:
//
//	//lint:allow deadexport <which test uses it, and why>
const deadExport = "deadexport"

// TestNoDeadExports is the whole-module guard against dead API: every
// exported function and method under internal/ must be referenced from
// some non-test file of the module or of the nested cmd/mrcbench module,
// its own package included. It runs beside TestRepoIsClean rather than
// as an analyzer, because a reference can come from any package.
func TestNoDeadExports(t *testing.T) {
	start := time.Now()
	pkgs, err := LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := Load(filepath.Join("..", "..", "cmd", "mrcbench"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	// The loaded module is shared with TestRepoIsClean: append to a copy.
	pkgs = append(pkgs[:len(pkgs):len(pkgs)], bench...)
	for _, d := range deadExports(pkgs) {
		t.Errorf("%s", d)
	}
	t.Logf("checked %d packages in %v", len(pkgs), time.Since(start).Round(time.Millisecond))
}

// TestDeadExportsFixture pins what the guard reports on
// testdata/deadexport: a function nothing calls, a dead method, and one
// whose allow line names another analyzer, each on a line whose
// `// want "name"` comment names it. Nothing else may be reported: not a
// function called only inside its own package, a method an interface
// names, a method of an unexported type, or one an allow line keeps.
func TestDeadExportsFixture(t *testing.T) {
	pkg, err := CheckDir("testdata/deadexport", "rapidmrc/internal/fixture")
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[int]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if name, ok := strings.CutPrefix(c.Text, "// want "); ok {
					wants[pkg.Fset.Position(c.Pos()).Line] = strings.Trim(name, `"`)
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("fixture declares no wants")
	}
	for _, d := range deadExports([]*Package{pkg}) {
		name, ok := wants[d.Pos.Line]
		if !ok || !strings.Contains(d.Message, "exported "+name+" ") {
			t.Errorf("unexpected finding: %s", d)
			continue
		}
		delete(wants, d.Pos.Line)
	}
	for line, name := range wants {
		t.Errorf("line %d: %s was not reported", line, name)
	}
}

// deadExports reports each exported function, and each exported method
// of an exported type, declared in a package under internal/ that no
// loaded file references. Packages are type-checked apart, so a
// function is matched to its uses by package path, receiver type name
// and name, not by object identity. Methods whose name matches a method
// of an interface in the loaded code, of error or fmt.Stringer, or of the
// errors package's Is/As/Unwrap protocol are skipped: they may be called
// only through that interface.
func deadExports(pkgs []*Package) []Diagnostic {
	used := make(map[string]bool)
	// error, fmt.Stringer, and the methods errors.Is, As and Unwrap
	// look for through interfaces of their own.
	ifaceMethods := map[string]bool{"Error": true, "String": true, "Is": true, "As": true, "Unwrap": true}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[funcKey(fn.Origin())] = true
			}
		}
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.Path+"/", "/internal/") {
			continue
		}
		sup, _ := buildSuppressions(pkg.Fset, pkg.Files)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || used[funcKey(fn)] {
					continue
				}
				name := fd.Name.Name
				if recv := recvName(fn); recv != "" {
					if !token.IsExported(recv) || ifaceMethods[name] {
						continue
					}
					name = recv + "." + name
				}
				pos := pkg.Fset.Position(fd.Name.Pos())
				if sup[suppressKey(pos.Filename, pos.Line)][deadExport] {
					continue
				}
				diags = append(diags, Diagnostic{
					Analyzer: deadExport,
					Pos:      pos,
					Message:  "exported " + pkg.Types.Name() + "." + name + " has no caller outside tests",
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return diags
}

// funcKey names fn across separately type-checked copies of its package.
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + recvName(fn) + "." + fn.Name()
}

// recvName is the name of fn's receiver type, or "" for a function or an
// interface method.
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
