package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// Determinism forbids wall-clock and process-entropy sources inside the
// simulation core (internal/...), where every "measured" time must be a
// simulator-clock reading and every random draw must come from a seeded
// sim.RNG stream. It also flags ranging over a map when the loop body feeds
// simulation state (sends, event pushes, time accounting): map iteration
// order varies between runs, so such loops must iterate sorted keys.
//
// Packages outside internal/ (cmd/, examples/, the root API) may report
// wall-clock durations to the user and are not checked.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global entropy, and order-sensitive map iteration in internal/",
	Run:  runDeterminism,
}

// forbiddenImports are entropy sources no simulation-core package may use:
// every stochastic draw must flow from the experiment seed through sim.RNG.
var forbiddenImports = map[string]string{
	"math/rand":    "global PRNG state breaks run-to-run reproducibility; draw from a seeded sim.RNG",
	"math/rand/v2": "global PRNG state breaks run-to-run reproducibility; draw from a seeded sim.RNG",
	"crypto/rand":  "hardware entropy breaks run-to-run reproducibility; draw from a seeded sim.RNG",
}

// wallClockFuncs are time-package functions that read the wall clock.
var wallClockFuncs = []string{"Now", "Since", "Until", "Sleep", "After", "Tick", "NewTimer", "NewTicker"}

// entropyFuncs are os-package functions whose results vary per process.
var entropyFuncs = []string{"Getpid", "Getppid"}

// stateFeedingCalls are method names that feed simulation state; calling
// one from inside a map-range body makes the simulation depend on map
// iteration order.
var stateFeedingCalls = map[string]bool{
	"Send":      true, // bsplib.Context
	"SendWords": true,
	"Charge":    true,
	"ChargeOps": true,
	"Push":      true, // sim.EventQueue
	"Advance":   true, // faults.Plan
	"AdvanceTo": true,
	"Record":    true, // trace.Recorder
	"Route":     true, // comm.Router
}

func runDeterminism(p *Pass) {
	if !strings.HasPrefix(p.Pkg.Path, p.World.ModulePath+"/internal/") {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := forbiddenImports[path]; ok {
				p.Reportf(imp.Pos(), "import of %s in simulation core: %s", path, why)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				obj := calleeObject(p.Pkg.Info, node)
				if isPkgFunc(obj, "time", wallClockFuncs...) {
					p.Reportf(node.Pos(), "call to time.%s in simulation core: simulated results must depend only on the simulator clock", obj.Name())
				}
				if isPkgFunc(obj, "os", entropyFuncs...) {
					p.Reportf(node.Pos(), "call to os.%s in simulation core: process identity is per-run entropy", obj.Name())
				}
			case *ast.RangeStmt:
				checkMapRange(p, node)
			}
			return true
		})
	}
}

// checkMapRange flags `for ... := range m` over a map when the body calls a
// state-feeding method: delivery, pricing, and accounting must not depend
// on Go's randomized map iteration order.
func checkMapRange(p *Pass, rng *ast.RangeStmt) {
	tv, ok := p.Pkg.Info.Types[rng.X]
	if !ok || !isMapType(tv.Type) {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !stateFeedingCalls[sel.Sel.Name] {
			return true
		}
		p.Reportf(rng.Pos(), "map iteration order feeds simulation state via %s: iterate sorted keys instead", sel.Sel.Name)
		return false
	})
}
