// Streaming: the capture→compute pipeline as one fused, always-on flow.
// Instead of buffering a 160k-entry trace log and batch-replaying it,
// the capture hands the log in 4,096-entry chunks to a feeder goroutine,
// which pushes them through the prefetch-repetition corrector into the
// incremental Mattson engine while the capture goes on — memory stays
// O(stack) plus the few chunks queued, and the curve can be read at any
// epoch mid-capture, which is what makes RapidMRC usable as a resident
// profiling service rather than a stop-the-world probe.
package main

import (
	"fmt"
	"log"

	"rapidmrc"
)

func main() {
	// Boot the simulated POWER5 running mcf and reach steady state.
	sys, err := rapidmrc.NewSystem("mcf", rapidmrc.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	sys.Run(500_000)

	// One streaming probing period: snapshots every 20k entries show the
	// in-flight curve converging toward its final shape long before the
	// full log budget is spent — the §5.2.3 observation, live.
	fmt.Println("entries    MPKI@1   MPKI@8  MPKI@16   Δ to previous epoch")
	var prev *rapidmrc.Curve
	curve, stats, err := sys.Stream(20_000, func(e rapidmrc.StreamEpoch) {
		delta := "      —"
		if prev != nil {
			delta = fmt.Sprintf("%7.2f", rapidmrc.Distance(prev, e.Curve))
		}
		fmt.Printf("%7d  %7.1f  %7.1f  %7.1f  %s\n",
			e.Entries, e.Curve.At(1), e.Curve.At(8), e.Curve.At(16), delta)
		prev = e.Curve
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nfinal curve after %d entries (%d dropped, %d stale, %d rewritten),\n",
		stats.Captured, stats.Dropped, stats.Stale, stats.Converted)
	fmt.Printf("anchored with shift %+.2f MPKI:\n\n", stats.Shift)
	fmt.Println("colors  MPKI")
	for i, v := range curve.MPKI {
		fmt.Printf("%4d   %6.2f\n", i+1, v)
	}

	// The guarantee behind the epochs: a full stream and the batch
	// pipeline produce the same curve. Engine.NewStream is the
	// hardware-independent half — feed it any trace source.
	trace := sys.Capture()
	batch, _, err := rapidmrc.NewEngine().Compute(trace)
	if err != nil {
		log.Fatal(err)
	}
	st, err := rapidmrc.NewEngine().NewStream(len(trace.Lines))
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range trace.Lines {
		st.Feed(l)
	}
	streamed, _, err := st.Snapshot(trace.Instructions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch vs streamed on the same trace: distance %.4f MPKI\n",
		rapidmrc.Distance(batch, streamed))
}
