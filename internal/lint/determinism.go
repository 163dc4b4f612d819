package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs are the packages whose behaviour must be a pure
// function of their inputs and seeds. The streaming engine's
// stream≡batch property, the shared-stream sweep's leader-L1 replay, and
// every golden-file experiment all assume a rerun reproduces the same
// bits; a clock read or a draw from the global math/rand source breaks
// that silently.
// The approximation tier, the SHARDS sampler, the service core, and the
// dynamic controller joined the catalog once the daemon grew: their
// curves, sampling decisions, and probing schedules must replay
// bit-identically too. Operational timestamps (epoch-latency metrics)
// carry explained //lint:allow suppressions.
var deterministicPkgs = map[string]bool{
	"rapidmrc/internal/core":     true,
	"rapidmrc/internal/cache":    true,
	"rapidmrc/internal/platform": true,
	"rapidmrc/internal/pmu":      true,
	"rapidmrc/internal/workload": true,
	"rapidmrc/internal/prefetch": true,
	"rapidmrc/internal/approx":   true,
	"rapidmrc/internal/sample":   true,
	"rapidmrc/internal/service":  true,
	"rapidmrc/internal/dynamic":  true,
}

// Determinism flags reads of ambient state — wall clock, the global
// math/rand source, process environment — inside the deterministic
// packages. Seeded *rand.Rand instances are fine (they are methods, not
// package-level calls), as are the rand.New/rand.NewSource constructors
// they are built from.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now, global math/rand draws, and environment reads in " +
		"internal/{core,cache,platform,pmu,workload,prefetch,approx,sample,service,dynamic}",
	Run: runDeterminism,
}

// bannedCalls maps package path → function name → what to say about it.
// Only package-level functions are matched; methods (e.g. (*rand.Rand).Intn)
// never hit this table.
var bannedCalls = map[string]map[string]string{
	"time": {
		"Now":   "reads the wall clock",
		"Since": "reads the wall clock",
		"Until": "reads the wall clock",
	},
	"math/rand":    {}, // every package-level draw; filled in below
	"math/rand/v2": {},
	"os": {
		"Getenv":    "reads the process environment",
		"LookupEnv": "reads the process environment",
		"Environ":   "reads the process environment",
		"Hostname":  "reads host identity",
	},
}

// randConstructors are the math/rand package-level functions that are
// deterministic given their arguments and therefore allowed.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if !deterministicPkgs[pass.Path] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calledFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods on seeded generators are fine
			}
			path, name := fn.Pkg().Path(), fn.Name()
			verbs, banned := bannedCalls[path]
			if !banned {
				return true
			}
			if strings.HasPrefix(path, "math/rand") {
				if randConstructors[name] {
					return true
				}
				pass.Reportf(call.Pos(), "call to %s.%s draws from the global rand source; use a seeded *rand.Rand", pathBase(path), name)
				return true
			}
			if verb, ok := verbs[name]; ok {
				pass.Reportf(call.Pos(), "call to %s.%s %s; deterministic packages must be pure functions of their seeds", pathBase(path), name, verb)
			}
			return true
		})
	}
	return nil
}

func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
