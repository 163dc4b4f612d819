// Package fixture exercises the deadexport guard. Each `want` line names
// a function the guard must report; every other exported function here
// must pass.
package fixture

// Dead has no caller anywhere.
func Dead() {} // want "fixture.Dead"

// Used is called only inside its own package, which counts.
func Used() int { return 1 }

func user() int { return Used() }

// A Sizer is satisfied by T, so T.Size may be called only through it.
type Sizer interface{ Size() int }

// T carries one method an interface names and one nothing calls.
type T struct{}

// Size matches Sizer.Size and is skipped.
func (T) Size() int { return user() }

// Drop has no caller.
func (T) Drop() {} // want "fixture.T.Drop"

// Error matches error.Error and is skipped.
func (T) Error() string { return "" }

// Kept is dead, but an explained allow line keeps it.
//
//lint:allow deadexport fixture: kept as oracle API for another package's test
func Kept() {}

// Bare is dead, and an allow line for another analyzer does not keep it.
//
//lint:allow errdrop fixture: names the wrong analyzer
func Bare() {} // want "fixture.Bare"

// t is unexported, so its exported method is not package API.
type t struct{}

func (t) Hidden() {}
