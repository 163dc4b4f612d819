package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// binary is the rapidlint executable the tests run, built once per test
// binary by runLint's first call and removed by TestMain.
var binary struct {
	once      sync.Once
	dir, root string
	err       error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binary.dir != "" {
		os.RemoveAll(binary.dir)
	}
	os.Exit(code)
}

// build compiles the real binary into a temporary directory and resolves
// the module root it runs from.
func build() (bin, root string, err error) {
	binary.once.Do(func() {
		out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
		if err != nil {
			binary.err = fmt.Errorf("resolving module root: %w", err)
			return
		}
		binary.root = strings.TrimSpace(string(out))
		if binary.dir, binary.err = os.MkdirTemp("", "rapidlint"); binary.err != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", filepath.Join(binary.dir, "rapidlint"), "rapidmrc/cmd/rapidlint")
		cmd.Dir = binary.root
		if msg, err := cmd.CombinedOutput(); err != nil {
			binary.err = fmt.Errorf("building rapidlint: %w\n%s", err, msg)
		}
	})
	return filepath.Join(binary.dir, "rapidlint"), binary.root, binary.err
}

// runLint runs the real binary from the module root, returning its
// combined output and exit code — the exact contract CI scripts rely on.
// (`go run` reports every child failure as exit 1, so the 1-vs-2
// distinction needs a direct exec.)
func runLint(t *testing.T, args ...string) (string, int) {
	t.Helper()
	bin, root, err := build()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err = cmd.Run()
	if err == nil {
		return out.String(), 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running rapidlint: %v\n%s", err, out.String())
	}
	return out.String(), ee.ExitCode()
}

// TestModuleIsClean runs the binary the way CI does, in plain mode over
// the whole module: exit 0 and no output. internal/lint's TestRepoIsClean
// runs the same analyzers in process.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	out, code := runLint(t, "rapidmrc/...")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	if s := strings.TrimSpace(out); s != "" {
		t.Fatalf("rapidlint reported findings:\n%s", s)
	}
}

// TestExitCodeOnFindings drives the binary over the seeded-violation
// fixture (reachable only by explicit path; wildcards skip testdata) and
// asserts the findings exit status.
func TestExitCodeOnFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	out, code := runLint(t, "./internal/lint/testdata/exitcode")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "hotpathalloc") {
		t.Fatalf("expected a hotpathalloc finding in output:\n%s", out)
	}
}

// TestExitCodeOnLoadError asserts the usage/load-failure exit status on
// an unresolvable package pattern.
func TestExitCodeOnLoadError(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	out, code := runLint(t, "./internal/lint/testdata/no-such-package")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\n%s", code, out)
	}
}

// TestAuditListsSuppressions asserts -audit surfaces the service layer's
// explained suppressions: the //lint:allow comments and the
// //rapidmrc:unbounded channel annotation, each with its reason.
func TestAuditListsSuppressions(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	out, code := runLint(t, "-audit", "./internal/service")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	for _, want := range []string{"[lint:allow]", "[rapidmrc:unbounded]", "errdrop", "chanbound"} {
		if !strings.Contains(out, want) {
			t.Errorf("-audit output missing %q:\n%s", want, out)
		}
	}
}
