package repro_bench

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names, by the reason they stay, the exported functions
// and methods under internal/ that only tests call.
var exportAllowlist = map[string]string{
	"an oracle tests compare the engine against": `linalg.Dense.Equal
		linalg.Dense.MaxAbsDiff linalg.Dense.Slice linalg.Dense.ColSums
		linalg.Dense.Diag linalg.Dense.FrobeniusNorm linalg.Eye
		linalg.AddDense linalg.SubDense linalg.Dot linalg.RandVector
		linalg.DenseToCOO linalg.CSR.At linalg.CSR.ToDense linalg.CSR.NNZ
		linalg.Vector.Equal linalg.Vector.EqualApprox
		tiled.SparseMatrix.ToDense mllib.BlockMatrix.ToDense comp.MustEval
		diablo.MustParse diablo.RunLocal ml.StepDense obs.ValidateExposition`,
	"a seam through which tests read state or inject a condition": `
		memory.Manager.Peak memory.Manager.Used memory.Manager.Overcommits
		memory.Manager.Waits memory.Manager.SetStall memory.PoisonReleased
		memory.Pool.Held dataflow.Context.Tracer trace.Tracer.SetLimit
		spill.Bound jobs.MergeResult server.Server.Addr`,
	"its callers move to the compiled program (ROADMAP 8(d))": "ml.Factorize",
}

// TestEveryExportIsCalled type-checks the non-test code of this module
// and of benchmark/ (module repro/benchmark) and fails naming each
// exported function or method under internal/ that no non-test code
// references. A method that satisfies an interface the program uses, or
// fmt.Stringer, error, an io, sort or heap interface, is exempt, as is
// the allowlist.
func TestEveryExportIsCalled(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by import path
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); dir != "." && (n[0] == '.' || n == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		path := strings.TrimSuffix("repro/"+filepath.ToSlash(dir), "/.")
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files[path] = append(files[path], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkgs := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p := pkgs[path]; p != nil {
			return p, nil
		}
		if files[path] == nil {
			return std.Import(path)
		}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, files[path], info)
		pkgs[path] = p
		return p, err
	}
	for path := range files {
		if _, err := imp(path); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}

	// The interfaces a method may satisfy: those of the program's
	// expressions and of the parameters and results of the functions it
	// calls (a generic one instantiated), and the standard ones reached
	// by reflection. A generic type's methods are tried on each of its
	// instances.
	ifaces := map[types.Type]bool{types.Universe.Lookup("error").Type(): true}
	instances := map[*types.Named][]types.Type{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[t] = true
		}
	}
	for _, tv := range info.Types {
		add(tv.Type)
		if n, ok := tv.Type.(*types.Named); ok && n.TypeArgs().Len() > 0 {
			instances[n.Origin()] = append(instances[n.Origin()], n)
		}
		if sig, ok := tv.Type.(*types.Signature); ok {
			for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					add(tuple.At(i).Type())
				}
			}
		}
	}
	for _, q := range []string{"fmt.Stringer", "io.Reader", "io.Writer", "io.ByteReader", "sort.Interface", "container/heap.Interface"} {
		i := strings.LastIndex(q, ".")
		p, err := std.Import(q[:i])
		if err != nil {
			t.Fatal(err)
		}
		add(p.Scope().Lookup(q[i+1:]).Type())
	}
	satisfies := func(fn *types.Func, named *types.Named) bool {
		for t := range ifaces {
			it := t.Underlying().(*types.Interface)
			if obj, _, _ := types.LookupFieldOrMethod(t, true, fn.Pkg(), fn.Name()); obj == nil {
				continue
			}
			for _, recv := range append(instances[named], named) {
				if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
					return true
				}
			}
		}
		return false
	}

	allow := map[string]bool{} // name -> seen unused
	for _, names := range exportAllowlist {
		for _, name := range strings.Fields(names) {
			allow[name] = false
		}
	}
	var unused []string
	for path, p := range pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		check := func(fn *types.Func, name string) {
			if name = p.Name() + "." + name; used[fn] {
				return
			}
			if _, ok := allow[name]; ok {
				allow[name] = true
			} else {
				unused = append(unused, name)
			}
		}
		for _, name := range p.Scope().Names() {
			switch obj := p.Scope().Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					check(obj, name)
				}
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok && !types.IsInterface(named) {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() && !satisfies(m, named) {
							check(m, name+"."+m.Name())
						}
					}
				}
			}
		}
	}
	for name, seen := range allow {
		if !seen {
			unused = append(unused, name+" (allowlisted, yet called outside tests or gone: drop the entry)")
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: exported under internal/ but no non-test code calls it; retire it, or allowlist it with a reason", name)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
