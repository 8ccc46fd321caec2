package lint

import (
	"go/ast"
	"go/types"
)

// SeededRand forbids the process-global math/rand stream. Package-level
// rand.Intn/Float64/... draw from a shared source whose state depends on
// everything else in the process (other goroutines, test order, prior runs),
// so a simulation that touches it can never replay. All model randomness
// must come from a *rand.Rand seeded from one of the run's seeds and owned
// by the model that draws from it (the workload's, the fault injector's and
// the local policy's streams; the kernel only orders events and draws
// none). Seeding a source from the wall clock is the same bug in one step, so
// rand.NewSource(time.Now()...) / rand.New(...time.Now()...) is flagged too.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc: "forbid global math/rand functions and wall-clock-seeded sources; randomness must " +
		"flow from a seeded *rand.Rand (waive with //lint:allow-globalrand)",
	Run: runSeededRand,
}

// seededRandConstructors may be called, but not with a wall-clock argument.
var seededRandConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
}

func runSeededRand(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if path := fn.Pkg().Path(); path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			// Methods on *rand.Rand are the sanctioned API; only package-level
			// functions share global state.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			switch {
			case seededRandConstructors[fn.Name()]:
				if wc := wallClockArg(pass, call); wc != "" {
					if pass.Allowed("allow-globalrand", call.Pos()) {
						return true
					}
					pass.Reportf(call.Pos(),
						"rand.%s seeded from %s is irreproducible; derive the seed from RunConfig.Seed",
						fn.Name(), wc)
				}
			default:
				if pass.Allowed("allow-globalrand", call.Pos()) {
					return true
				}
				pass.Reportf(call.Pos(),
					"global rand.%s draws from shared process state and breaks deterministic replay; use a seeded *rand.Rand threaded from RunConfig (or annotate //lint:allow-globalrand <reason>)",
					fn.Name())
			}
			return true
		})
	}
}

// wallClockArg reports the first wall-clock call ("time.Now", ...) anywhere
// inside call's arguments, or "".
func wallClockArg(pass *Pass, call *ast.CallExpr) string {
	found := ""
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if found != "" {
				return false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := pass.Info.Uses[sel.Sel]
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && simClockForbidden[sel.Sel.Name] {
				found = "time." + sel.Sel.Name
				return false
			}
			return true
		})
	}
	return found
}
