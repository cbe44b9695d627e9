package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked analysis target: a package of the module with
// its syntax trees and full type information.
type Package struct {
	Path  string // import path
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// World is the result of loading a module for analysis: the target packages
// matched by the load patterns plus the cross-package facts the analyzers
// consume (most importantly the set of objects declared with type sim.Time,
// which go/types erases because Time is a float64 alias).
type World struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string
	Targets    []*Package

	// TimeObjs holds every object (variable, field, parameter, or function
	// result) whose source declaration spells the type sim.Time (or a
	// slice/array/map of it), across every module package that was loaded.
	TimeObjs map[types.Object]bool

	// modulePkgs indexes every loaded module package (targets and
	// module-internal dependencies) by import path.
	modulePkgs map[string]*Package
}

// SimPath returns the import path of the simulation kernel package.
func (w *World) SimPath() string { return w.ModulePath + "/internal/sim" }

// loader loads and type-checks packages on demand. Module packages keep
// their syntax and full type info; standard-library dependencies are
// type-checked from GOROOT source with function bodies ignored, which is
// all the analyzers need and keeps loading fast without requiring any
// toolchain support beyond the standard library.
type loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	goroot     string

	module  map[string]*Package       // module packages, by import path
	deps    map[string]*types.Package // non-module packages, by import path
	loading map[string]bool           // cycle detection
}

// Import implements types.Importer.
func (l *loader) Import(importPath string) (*types.Package, error) {
	return l.load(importPath)
}

func (l *loader) load(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := l.deps[importPath]; ok {
		return tp, nil
	}
	if pkg, ok := l.module[importPath]; ok {
		return pkg.Types, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %q", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	if l.isModulePath(importPath) {
		pkg, err := l.loadModulePackage(importPath)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.loadDep(importPath)
}

func (l *loader) isModulePath(importPath string) bool {
	return importPath == l.modulePath || strings.HasPrefix(importPath, l.modulePath+"/")
}

// dirForModulePath maps a module import path to its directory.
func (l *loader) dirForModulePath(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.modulePath), "/")
	return filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
}

// importPathForDir maps a directory inside the module to its import path.
func (l *loader) importPathForDir(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("directory %s is outside module root %s", dir, l.moduleRoot)
	}
	return path.Join(l.modulePath, filepath.ToSlash(rel)), nil
}

func (l *loader) sizes() types.Sizes {
	return types.SizesFor("gc", runtime.GOARCH)
}

// loadModulePackage parses and fully type-checks one package of the module,
// keeping its ASTs (with comments, for suppression directives) and type info.
func (l *loader) loadModulePackage(importPath string) (*Package, error) {
	dir := l.dirForModulePath(importPath)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", importPath, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l, Sizes: l.sizes(), FakeImportC: true}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.module[importPath] = pkg
	return pkg, nil
}

// loadDep type-checks a standard-library package from GOROOT source with
// function bodies ignored (only the exported surface matters to importers).
func (l *loader) loadDep(importPath string) (*types.Package, error) {
	dir := filepath.Join(l.goroot, "src", filepath.FromSlash(importPath))
	if _, err := os.Stat(dir); err != nil {
		// Standard-library packages may import vendored golang.org/x code.
		vdir := filepath.Join(l.goroot, "src", "vendor", filepath.FromSlash(importPath))
		if _, verr := os.Stat(vdir); verr != nil {
			return nil, fmt.Errorf("cannot find package %q in GOROOT (%s)", importPath, l.goroot)
		}
		dir = vdir
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", importPath, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, Sizes: l.sizes(), IgnoreFuncBodies: true, FakeImportC: true}
	tpkg, err := conf.Check(importPath, l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	l.deps[importPath] = tpkg
	return tpkg, nil
}

var moduleDirective = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// FindModuleRoot walks upward from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			m := moduleDirective.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("%s/go.mod has no module directive", dir)
			}
			return dir, string(m[1]), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found at or above %s", dir)
		}
		dir = parent
	}
}

// Load type-checks the module packages matched by patterns, resolved
// relative to dir. Patterns follow the go tool's shape: "./..." (or
// "sub/...") walks a subtree; anything else names one package directory.
// Directories named testdata or vendor, and hidden or underscore-prefixed
// directories, are skipped by tree walks.
func Load(dir string, patterns []string) (*World, error) {
	moduleRoot, modulePath, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:       token.NewFileSet(),
		moduleRoot: moduleRoot,
		modulePath: modulePath,
		goroot:     build.Default.GOROOT,
		module:     make(map[string]*Package),
		deps:       make(map[string]*types.Package),
		loading:    make(map[string]bool),
	}
	dirs, err := expandPatterns(dir, moduleRoot, patterns)
	if err != nil {
		return nil, err
	}
	w := &World{
		Fset:       l.fset,
		ModulePath: modulePath,
		ModuleRoot: moduleRoot,
		TimeObjs:   make(map[types.Object]bool),
		modulePkgs: l.module,
	}
	for _, d := range dirs {
		importPath, err := l.importPathForDir(d)
		if err != nil {
			return nil, err
		}
		if pkg, ok := l.module[importPath]; ok {
			w.Targets = append(w.Targets, pkg)
			continue
		}
		pkg, err := l.loadModulePackage(importPath)
		if err != nil {
			return nil, err
		}
		w.Targets = append(w.Targets, pkg)
	}
	sort.Slice(w.Targets, func(i, j int) bool { return w.Targets[i].Path < w.Targets[j].Path })
	collectTimeObjs(w)
	return w, nil
}

// expandPatterns resolves package patterns to a sorted list of directories.
func expandPatterns(baseDir, moduleRoot string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		p := pat
		if p == "..." {
			recursive, p = true, "."
		} else if strings.HasSuffix(p, "/...") {
			recursive, p = true, strings.TrimSuffix(p, "/...")
		}
		root := p
		if !filepath.IsAbs(root) {
			root = filepath.Join(baseDir, root)
		}
		root, err := filepath.Abs(root)
		if err != nil {
			return nil, err
		}
		if !recursive {
			if !hasGoFiles(root) {
				return nil, fmt.Errorf("no Go files in %s", root)
			}
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		if rel, err := filepath.Rel(moduleRoot, d); err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("directory %s is outside module root %s", d, moduleRoot)
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// collectTimeObjs records every object whose declared type is spelled
// sim.Time (or Time inside package sim itself), including elements of
// slices, arrays, and maps of sim.Time. The alias erases to float64 in the
// type system, so the simtime analyzer recovers the intent syntactically.
func collectTimeObjs(w *World) {
	simPath := w.SimPath()
	for _, pkg := range w.modulePkgs {
		isTimeType := func(e ast.Expr) bool { return spellsSimTime(pkg, simPath, e) }
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.Field:
					if d.Type != nil && isTimeType(d.Type) {
						for _, name := range d.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								w.TimeObjs[obj] = true
							}
						}
					}
				case *ast.ValueSpec:
					if d.Type != nil && isTimeType(d.Type) {
						for _, name := range d.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								w.TimeObjs[obj] = true
							}
						}
					}
				case *ast.FuncDecl:
					// A function with a single sim.Time result: mark the
					// function object so calls to it read as Time values.
					if d.Type.Results != nil && len(d.Type.Results.List) == 1 {
						res := d.Type.Results.List[0]
						if len(res.Names) == 0 && isTimeType(res.Type) {
							if obj := pkg.Info.Defs[d.Name]; obj != nil {
								w.TimeObjs[obj] = true
							}
						}
					}
				}
				return true
			})
		}
	}
}

// spellsSimTime reports whether the type expression is written as sim.Time,
// or a slice/array/map whose element type is.
func spellsSimTime(pkg *Package, simPath string, e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.Ident:
		return pkg.Path == simPath && t.Name == "Time"
	case *ast.SelectorExpr:
		x, ok := t.X.(*ast.Ident)
		if !ok || t.Sel.Name != "Time" {
			return false
		}
		pn, ok := pkg.Info.Uses[x].(*types.PkgName)
		return ok && pn.Imported().Path() == simPath
	case *ast.ArrayType:
		return spellsSimTime(pkg, simPath, t.Elt)
	case *ast.MapType:
		return spellsSimTime(pkg, simPath, t.Value)
	}
	return false
}
