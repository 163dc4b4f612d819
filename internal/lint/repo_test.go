package lint_test

import (
	"testing"

	"rapidmrc/internal/lint"
)

// TestRepoIsClean is the tier-1 enforcement point: every analyzer over
// every package of the module, zero findings. This is the in-process
// equivalent of `go run ./cmd/rapidlint ./...`.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := lint.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages matched rapidmrc/...")
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d finding(s); run `go run ./cmd/rapidlint ./...` for the same output", len(diags))
	} else {
		t.Logf("rapidlint clean over %d packages", len(pkgs))
	}
}
