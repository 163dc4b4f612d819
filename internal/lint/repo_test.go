package lint_test

import (
	"bytes"
	"os/exec"
	"strings"
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

// TestRapidlintCommand smoke-tests the actual binary path CI runs.
func TestRapidlintCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	root, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("resolving module root: %v", err)
	}
	cmd := exec.Command("go", "run", "rapidmrc/cmd/rapidlint", "rapidmrc/...")
	cmd.Dir = strings.TrimSpace(string(root))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("rapidlint exited non-zero: %v\n%s", err, out.String())
	}
	if s := strings.TrimSpace(out.String()); s != "" {
		t.Fatalf("rapidlint reported findings:\n%s", s)
	}
}
