package dynamic

import (
	"testing"

	"rapidmrc/internal/workload"
)

// TestEarlyStopShortensProbing checks the streaming payoff in the
// controller: with snapshot convergence enabled at a generous epsilon,
// recomputations end their probing periods as soon as convergenceWindow
// consecutive snapshot pairs agree, so the total streamed entries fall
// short of the fixed Recomputations × TraceEntries budget. With
// convergence disabled, every probing period must run the full budget
// exactly.
//
// The early-stop length also pins the window of 2 exactly: these apps
// warm up statically, and every post-warmup snapshot pair counts as
// settled at this epsilon, so each probe stops at 30,000 entries. One
// fewer settled pair would stop it at 28,000, one more at 32,000.
func TestEarlyStopShortensProbing(t *testing.T) {
	apps := []workload.Config{
		workload.MustByName("crafty"),
		workload.MustByName("gzip"),
	}

	fixed := testConfig()
	fixed.SnapshotEntries = 0 // disable early termination
	c, err := New(apps, opt(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Run(8)
	if st.Recomputations == 0 {
		t.Fatal("no recomputations in 8 intervals")
	}
	if st.ProbedEntries != st.Recomputations*fixed.TraceEntries {
		t.Fatalf("without convergence, probed %d entries over %d recomputations, want %d each",
			st.ProbedEntries, st.Recomputations, fixed.TraceEntries)
	}

	early := testConfig()
	early.SnapshotEntries = 2_000
	early.ConvergedMPKI = 1e6 // any two post-warmup snapshots agree
	c, err = New(apps, opt(), early)
	if err != nil {
		t.Fatal(err)
	}
	st = c.Run(8)
	if st.Recomputations == 0 {
		t.Fatal("no recomputations in 8 intervals")
	}
	const perProbe = 30_000
	if st.ProbedEntries != st.Recomputations*perProbe {
		t.Fatalf("early stop probed %d entries over %d recomputations, want %d each",
			st.ProbedEntries, st.Recomputations, perProbe)
	}
	// Curves must still exist and anchor correctly after early stops.
	for i := range apps {
		if c.curves[i] == nil {
			t.Fatalf("app %d has no curve after early-stopped reprofile", i)
		}
	}
}
