package lint

import "sync"

// LoadModule loads and type-checks rapidmrc/... once per test binary, so
// TestRepoIsClean and TestNoDeadExports share one load of the module.
var LoadModule = sync.OnceValues(func() ([]*Package, error) {
	return Load(".", "rapidmrc/...")
})
