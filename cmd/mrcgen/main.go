// Command mrcgen computes a RapidMRC curve online for one of the bundled
// applications: it boots the simulated machine, runs a probing period,
// feeds the captured trace through the stack simulator, and prints the
// curve (optionally against the real MRC).
//
// Usage:
//
//	mrcgen -app mcf
//	mrcgen -app mcf -stream -epoch 20000
//	mrcgen -app mcf -sampling-rate 0.1
//	mrcgen -app swim -entries 1600000 -real
//	mrcgen -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rapidmrc"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/prof"
	"rapidmrc/internal/report"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/tracefile"
)

// fail prints the error and exits, flushing any active profiles first.
var stopProfiles = func() {}

func fail(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "mrcgen:", err)
	os.Exit(1)
}

func main() {
	var (
		app        = flag.String("app", "mcf", "application name")
		entries    = flag.Int("entries", rapidmrc.TraceEntries, "trace log length")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		simplified = flag.Bool("simplified", false, "capture in single-issue, in-order, no-prefetch mode")
		withReal   = flag.Bool("real", false, "also measure the real MRC (16 full runs) and report the distance")
		parallel   = flag.Int("parallel", 0, "worker pool size for the real-MRC runs (0 = one per CPU, 1 = serial)")
		sampling   = flag.Float64("sampling-rate", 0, "SHARDS-sample the probing period at this rate in (0, 1] before the stack engine (0 = off); the curve gains a confidence band")
		list       = flag.Bool("list", false, "list available applications")
		save       = flag.String("save", "", "write the captured (uncorrected) trace to this file")
		load       = flag.String("load", "", "compute from a previously saved trace instead of capturing")
		stream     = flag.Bool("stream", false, "fuse capture and compute: samples flow straight into the incremental engine, no trace log is materialized")
		epoch      = flag.Int("epoch", 0, "with -stream, print a mid-capture curve snapshot every N entries (0 = none)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, n := range rapidmrc.Apps() {
			fmt.Println(n)
		}
		return
	}

	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}
	stopProfiles = stop
	defer stop()

	opts := []rapidmrc.SystemOption{
		rapidmrc.WithSeed(*seed),
		rapidmrc.WithTraceEntries(*entries),
	}
	if *simplified {
		opts = append(opts, rapidmrc.WithSimplifiedMode())
	}
	if *sampling != 0 {
		// The option validates the rate at apply time (a *sample.RateError
		// for anything outside (0, 1]); the constructor surfaces it.
		opts = append(opts, rapidmrc.WithSamplingRate(*sampling))
		if *load != "" {
			fail(fmt.Errorf("-sampling-rate applies to the online capture paths, not -load"))
		}
	}

	if *stream && *save != "" {
		fail(fmt.Errorf("-save needs the buffered capture path; -stream never materializes a trace"))
	}

	var (
		curve *rapidmrc.Curve
		stats *rapidmrc.Stats
		trace *rapidmrc.Trace
	)
	switch {
	case *stream && *load != "":
		curve, stats, err = streamFromFile(*load, *epoch)
	case *stream:
		curve, stats, err = streamOnline(*app, *epoch, opts)
	case *load != "":
		trace, err = loadTrace(*load)
		if err == nil {
			curve, stats, err = rapidmrc.NewEngine().Compute(trace)
		}
	default:
		curve, stats, trace, err = rapidmrc.Online(*app, opts...)
	}
	if err != nil {
		fail(err)
	}
	if *save != "" {
		if err := saveTrace(*save, trace); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "trace saved to %s\n", *save)
	}

	source := *app
	if *load != "" {
		source = *load
	}
	if *stream {
		fmt.Printf("RapidMRC for %s (streamed, %d-entry log, no trace buffered)\n", source, stats.Captured)
		fmt.Printf("capture: %d dropped, %d stale\n", stats.Dropped, stats.Stale)
	} else {
		fmt.Printf("RapidMRC for %s (%d-entry log)\n", source, len(trace.Lines))
		fmt.Printf("capture: %d instr, %d Mcycles, %d dropped, %d stale\n",
			trace.Instructions, trace.Cycles/1e6, trace.Dropped, trace.Stale)
	}
	fmt.Printf("compute: %d Mcycles, warmup %d entries (auto=%v), stack hit rate %.0f%%, %d entries converted\n",
		stats.ComputeCycles/1e6, stats.WarmupEntries, stats.AutoWarmup,
		100*stats.StackHitRate, stats.Converted)
	if stats.SamplingRate != 0 {
		width := 0.0
		for i := range stats.BandLow {
			width += stats.BandHigh[i] - stats.BandLow[i]
		}
		if n := len(stats.BandLow); n > 0 {
			width /= float64(n)
		}
		fmt.Printf("sampling: rate %.4f, %.0f%% band mean width %.2f MPKI, %.0f effective samples\n",
			stats.SamplingRate, 100*sample.DefaultLevel, width, stats.EffSamples)
	}

	x := make([]float64, len(curve.MPKI))
	for i := range x {
		x[i] = float64(i + 1)
	}
	if *withReal {
		realOpts := []rapidmrc.SystemOption{rapidmrc.WithSeed(*seed)}
		if *parallel != 0 {
			// Flag 0 = one worker per CPU, which is the option-absent
			// default; the option itself rejects counts below 1.
			realOpts = append(realOpts, rapidmrc.WithParallelism(*parallel))
		}
		real, err := rapidmrc.RealCurve(*app, realOpts...)
		if err != nil {
			fail(err)
		}
		matched := curve.Clone()
		matched.Transpose(8, real.At(8))
		fmt.Printf("distance to real MRC (matched at 8 colors): %.2f MPKI\n\n",
			rapidmrc.Distance(matched, real))
		fmt.Print(report.Series("colors", x, []string{"RapidMRC", "Real"},
			[][]float64{matched.MPKI, real.MPKI}))
		fmt.Print(report.Plot(*app, []string{"RapidMRC", "Real"},
			[][]float64{matched.MPKI, real.MPKI}, 48, 12))
		return
	}
	fmt.Println()
	fmt.Print(report.Series("colors", x, []string{"MPKI"}, [][]float64{curve.MPKI}))
	fmt.Print(report.Plot(*app, []string{"MPKI"}, [][]float64{curve.MPKI}, 48, 12))
}

// printEpoch renders one mid-capture snapshot line.
func printEpoch(entries int, c *rapidmrc.Curve) {
	fmt.Printf("epoch %8d entries: MPKI %6.1f @1, %6.1f @8, %6.1f @16\n",
		entries, c.At(1), c.At(8), c.At(16))
}

// streamOnline is Online with the capture and computation fused: warm up,
// then stream one probing period straight through the incremental engine.
func streamOnline(app string, epoch int, opts []rapidmrc.SystemOption) (*rapidmrc.Curve, *rapidmrc.Stats, error) {
	sys, err := rapidmrc.NewSystem(app, opts...)
	if err != nil {
		return nil, nil, err
	}
	sys.Run(500_000)
	return sys.Stream(epoch, func(e rapidmrc.StreamEpoch) {
		printEpoch(e.Entries, e.Curve)
	})
}

// streamFromFile replays an archived trace through the streaming engine
// one entry at a time — the whole log is never resident.
func streamFromFile(path string, epoch int) (*rapidmrc.Curve, *rapidmrc.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	//lint:allow errdrop read-only trace file; a close failure cannot lose data
	defer f.Close()
	r, err := tracefile.NewReader(f)
	if err != nil {
		return nil, nil, err
	}
	st, err := rapidmrc.NewEngine().NewStream(r.Len())
	if err != nil {
		return nil, nil, err
	}
	//lint:allow errdrop Close only recycles the engine into the pool and never fails
	defer st.Close()
	for {
		l, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if err := st.Feed(uint64(l)); err != nil {
			return nil, nil, err
		}
		if epoch > 0 && st.Entries()%epoch == 0 && !st.Warming() {
			// Prorate the archived progress to the entries fed so far.
			instr := r.Instructions() * uint64(st.Entries()) / uint64(r.Len())
			if c, _, err := st.Snapshot(instr); err == nil {
				printEpoch(st.Entries(), c)
			}
		}
	}
	curve, stats, err := st.Snapshot(r.Instructions())
	if err != nil {
		return nil, nil, err
	}
	stats.Captured = st.Entries()
	return curve, stats, nil
}

// saveTrace serializes the raw captured trace. The file's Close error
// is part of the result: on many filesystems a write failure only
// surfaces at close, and a truncated trace replays as a wrong curve.
func saveTrace(path string, t *rapidmrc.Trace) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	lines := make([]mem.Line, len(t.Lines))
	for i, l := range t.Lines {
		lines[i] = mem.Line(l)
	}
	return tracefile.Write(f, &tracefile.Trace{
		Lines:        lines,
		Instructions: t.Instructions,
		Cycles:       t.Cycles,
	})
}

// loadTrace deserializes a saved trace into the engine's input form.
func loadTrace(path string) (*rapidmrc.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:allow errdrop read-only trace file; a close failure cannot lose data
	defer f.Close()
	t, err := tracefile.Read(f)
	if err != nil {
		return nil, err
	}
	out := &rapidmrc.Trace{
		Instructions: t.Instructions,
		Cycles:       t.Cycles,
		Lines:        make([]uint64, len(t.Lines)),
	}
	for i, l := range t.Lines {
		out.Lines[i] = uint64(l)
	}
	return out, nil
}
