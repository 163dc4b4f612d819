package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputByteStable runs cheap experiments at testCfg() and requires
// output byte-identical to the committed goldens in testdata — the
// dynamic face of the static maporder and determinism invariants
// (internal/lint): no map-hash order, clock reads, or global rand draws
// may leak into emitted files, so archived experiment output diffs clean
// across runs, and a refactor that claims to preserve behaviour is held
// to the outputs of the code it replaced. CI runs it again under
// GOMAXPROCS=1, so fig7's pooled co-runs are also pinned independent of
// the worker count. ext-tiers pins the sampled and analytical tiers
// against the exact curve, with the partitions they choose; its
// wall-clock ns/ref and Speedup columns go to stderr, outside the golden. fig4, fig5b, fig5c, fig6, table2 and
// ext-pmubuffer pin the drivers that boot, warm and capture a probing
// period through captureWarm.
//
// A change that alters an experiment's output on purpose regenerates the
// goldens from the repository root with
//
//	for id in table1 fig4 fig5a fig5b fig5c fig6 fig7 table2 ext-dynamic ext-tiers ext-pmubuffer; do go run ./cmd/experiments -run $id -quick > internal/experiments/testdata/$id.golden; done
//
// and explains the diff in CHANGES.md.
func TestOutputByteStable(t *testing.T) {
	for _, id := range []string{
		"table1", "fig4", "fig5a", "fig5b", "fig5c", "fig6", "fig7", "table2",
		"ext-dynamic", "ext-tiers", "ext-pmubuffer",
	} {
		want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := Run(id, &got, testCfg()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s output differs from testdata/%s.golden (%d vs %d bytes):\n%s",
				id, id, got.Len(), len(want), got.String())
		}
	}
}
