package lint

import (
	"strconv"
	"strings"
)

// internalPrefix scopes the layering rules to this module's internal
// tree.
const internalPrefix = "rapidmrc/internal/"

// pkgLayer assigns every internal package a layer; a package may import
// only internal packages of a strictly lower layer. The map is the
// machine-readable form of the architecture diagram in DESIGN.md
// ("Static invariants"):
//
//	layer 0  mem
//	layer 1  core cache cpu color prefetch pmu workload tracefile
//	         contend runner prof report
//	layer 2  platform partition phase approx sample
//	layer 3  benchsuite service
//	layer 4  dynamic
//	layer 5  experiments
//
// service sits above the compute engines it pools (core, sample) and
// the platform it serves, but below dynamic: the closed-loop controller
// draws its recomputation engines from a service pool, while nothing in
// the compute core may reach up into the service layer.
//
// Keys are either a top-level internal package name ("core") or an exact
// sub-package path ("core/sub"); the exact path wins, so a sub-package
// can sit at a different layer than its parent. Uncataloged sub-packages
// inherit the parent's layer.
//
// A new internal package must be added here before anything can import
// it — an unknown package is itself a finding, so the catalog cannot rot.
var pkgLayer = map[string]int{
	"mem":         0,
	"core":        1,
	"cache":       1,
	"cpu":         1,
	"color":       1,
	"prefetch":    1,
	"pmu":         1,
	"workload":    1,
	"tracefile":   1,
	"contend":     1,
	"runner":      1,
	"prof":        1,
	"report":      1,
	"platform":    2,
	"partition":   2,
	"phase":       2,
	"approx":      2,
	"sample":      2,
	"benchsuite":  3,
	"service":     3,
	"dynamic":     4,
	"experiments": 5,
}

// exemptPkgs sit outside the simulator layering: the lint tooling itself
// may import anything it needs.
var exemptPkgs = map[string]bool{
	"lint": true,
}

// kernelBannedStd are the standard-library imports the bottom of the
// simulator may not touch: internal/core and internal/cache are the
// packages the AllocsPerRun pins and stream≡batch proofs live in, and
// fmt/os/log pull in boxing, ambient state, and global writers.
var kernelBannedStd = map[string]bool{
	"fmt": true,
	"os":  true,
	"log": true,
}

// kernelPkgs are the packages kernelBannedStd applies to.
var kernelPkgs = map[string]bool{
	"rapidmrc/internal/core":  true,
	"rapidmrc/internal/cache": true,
}

// ImportBoundary enforces the internal layering (core/cache and friends
// at the bottom, platform in the middle, experiments on top) and keeps
// fmt, os, and log out of the simulator kernel.
var ImportBoundary = &Analyzer{
	Name: "importboundary",
	Doc: "enforce the internal package layering and ban fmt/os/log imports " +
		"in internal/core and internal/cache",
	Run: runImportBoundary,
}

func runImportBoundary(pass *Pass) error {
	short, internal := strings.CutPrefix(pass.Path, internalPrefix)
	if internal && exemptPkgs[topName(short)] {
		return nil
	}
	var selfLayer int
	var selfKnown, selfReported bool
	if internal {
		selfLayer, selfKnown = layerOf(short)
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if kernelPkgs[pass.Path] && kernelBannedStd[path] {
				pass.Reportf(imp.Pos(), "%s may not import %q (simulator kernel: no boxing, ambient state, or global writers)", pass.Path, path)
				continue
			}
			impShort, ok := strings.CutPrefix(path, internalPrefix)
			if !ok {
				continue
			}
			if exemptPkgs[topName(impShort)] {
				// Only the simulator proper is fenced off from the lint
				// tooling; cmd/rapidlint and tests drive it by design.
				if internal {
					pass.Reportf(imp.Pos(), "%s may not import %q (lint tooling is not part of the simulator)", pass.Path, path)
				}
				continue
			}
			impLayer, impKnown := layerOf(impShort)
			if !impKnown {
				pass.Reportf(imp.Pos(), "internal package %q is missing from the layering catalog (internal/lint/importboundary.go pkgLayer)", path)
				continue
			}
			if !internal {
				continue // the facade and cmds sit above every layer
			}
			if !selfKnown {
				if !selfReported {
					pass.Reportf(f.Name.Pos(), "internal package %q is missing from the layering catalog (internal/lint/importboundary.go pkgLayer)", pass.Path)
					selfReported = true
				}
				continue
			}
			if impLayer >= selfLayer {
				pass.Reportf(imp.Pos(), "%s (layer %d) may not import %q (layer %d): imports must point strictly down the layering",
					pass.Path, selfLayer, path, impLayer)
			}
		}
	}
	return nil
}

// layerOf resolves the layer of an internal package given its path
// relative to internalPrefix: an exact catalog entry wins, otherwise the
// top-level package's entry applies to all of its sub-packages.
func layerOf(short string) (int, bool) {
	if l, ok := pkgLayer[short]; ok {
		return l, true
	}
	l, ok := pkgLayer[topName(short)]
	return l, ok
}

// topName maps "cache" or "cache/subpkg" to "cache".
func topName(short string) string {
	if i := strings.IndexByte(short, '/'); i >= 0 {
		return short[:i]
	}
	return short
}
