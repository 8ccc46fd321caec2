package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Budget is one //lint:allocbudget declaration exported as a static fact.
// It is the compiler-checked half of the allocation contract: internal/obs
// captures where a run *actually* allocates, and internal/analysis joins
// those runtime sites against these declarations to confirm each budget
// empirically and to flag hot sites that carry no budget at all.
type Budget struct {
	// Func is the annotated function's runtime symbol — e.g.
	// "wadc/internal/sim.(*Kernel).schedule", the exact form
	// runtime.CallersFrames reports — so alloc-site tables join by string
	// equality.
	Func string `json:"func"`
	// File is the declaring file, root-relative; Line is the declaration
	// line.
	File string `json:"file"`
	Line int    `json:"line"`
	// Budget is the declared number of heap-escape sites the compiler may
	// prove in the function; Reason is its mandatory justification.
	Budget int    `json:"budget"`
	Reason string `json:"reason"`
}

// FindModuleRoot walks up from the working directory to the nearest
// directory containing go.mod — the root CollectBudgets wants — or returns
// "".
func FindModuleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// CollectBudgets parses every non-test .go file under root (a module root
// containing go.mod) and returns all //lint:allocbudget declarations,
// ordered by file then line. It is a pure syntax pass — no type checking,
// no escape facts — so budget consumers (the analysis join, simscope,
// tests) do not need the full simlint loader; the arithmetic behind each
// budget remains the allocbudget analyzer's job.
func CollectBudgets(root string) ([]Budget, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var budgets []Budget
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", "vendor", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: parsing %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		rel = filepath.ToSlash(rel)
		pkgPath := modPath
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkgPath = modPath + "/" + dir
		}
		budgets = append(budgets, fileBudgets(fset, f, pkgPath, rel)...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(budgets, func(i, j int) bool {
		if budgets[i].File != budgets[j].File {
			return budgets[i].File < budgets[j].File
		}
		return budgets[i].Line < budgets[j].Line
	})
	return budgets, nil
}

// fileBudgets extracts one parsed file's allocbudget declarations, binding
// each directive to its function with the same placement rule the analyzers
// use (doc block, or the line directly above the declaration).
func fileBudgets(fset *token.FileSet, f *ast.File, pkgPath, relFile string) []Budget {
	var ds []directive
	for _, d := range parseDirectives(fset, []*ast.File{f}) {
		if d.name == "allocbudget" {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return nil
	}
	var out []Budget
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		declLine := fset.Position(fd.Pos()).Line
		docLine := declLine - 1
		if fd.Doc != nil {
			docLine = fset.Position(fd.Doc.Pos()).Line
		}
		for _, d := range ds {
			if d.line < docLine-1 || d.line >= declLine {
				continue
			}
			n, reason, ok := parseBudget(d)
			if !ok {
				continue // malformed; the allocbudget analyzer reports it
			}
			out = append(out, Budget{
				Func:   pkgPath + "." + funcKey(fd),
				File:   relFile,
				Line:   declLine,
				Budget: n,
				Reason: reason,
			})
		}
	}
	return out
}

// modulePath reads the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading module path: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}
