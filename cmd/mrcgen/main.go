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
	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/prof"
	"rapidmrc/internal/report"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/service"
	"rapidmrc/internal/tracefile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mrcgen:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes the report to w.
func run(args []string, w io.Writer) error {
	o := &output{w: w}
	fs := flag.NewFlagSet("mrcgen", flag.ExitOnError)
	var (
		app        = fs.String("app", "mcf", "application name")
		entries    = fs.Int("entries", rapidmrc.TraceEntries, "trace log length")
		seed       = fs.Int64("seed", 1, "deterministic seed")
		simplified = fs.Bool("simplified", false, "capture in single-issue, in-order, no-prefetch mode")
		withReal   = fs.Bool("real", false, "also measure the real MRC (16 full runs) and report the distance")
		parallel   = fs.Int("parallel", 0, "worker pool size for the real-MRC runs (0 = one per CPU, 1 = serial)")
		sampling   = fs.Float64("sampling-rate", 0, "SHARDS-sample the probing period at this rate in (0, 1] before the stack engine (0 = off); the curve gains a confidence band")
		list       = fs.Bool("list", false, "list available applications")
		save       = fs.String("save", "", "write the captured (uncorrected) trace to this file")
		load       = fs.String("load", "", "compute from a previously saved trace instead of capturing")
		stream     = fs.Bool("stream", false, "fuse capture and compute: the engine consumes the log in chunks while the capture runs, and no trace log is kept")
		epoch      = fs.Int("epoch", 0, "with -stream, print a mid-capture curve snapshot every N entries (0 = none)")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, n := range rapidmrc.Apps() {
			o.printf("%s\n", n)
		}
		return o.err
	}

	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
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
			return fmt.Errorf("-sampling-rate applies to the online capture paths, not -load")
		}
	}

	if *stream && *save != "" {
		return fmt.Errorf("-save needs the buffered capture path; -stream never materializes a trace")
	}

	var (
		curve *rapidmrc.Curve
		stats *rapidmrc.Stats
		trace *rapidmrc.Trace
	)
	printEpoch := func(entries int, c *rapidmrc.Curve) {
		o.printf("epoch %8d entries: MPKI %6.1f @1, %6.1f @8, %6.1f @16\n",
			entries, c.At(1), c.At(8), c.At(16))
	}
	switch {
	case *stream && *load != "":
		curve, stats, err = streamFromFile(*load, *epoch, printEpoch)
	case *stream:
		curve, stats, err = streamOnline(*app, *epoch, opts, printEpoch)
	case *load != "":
		trace, err = loadTrace(*load)
		if err == nil {
			curve, stats, err = rapidmrc.NewEngine().Compute(trace)
		}
	default:
		curve, stats, trace, err = rapidmrc.Online(*app, opts...)
	}
	if err != nil {
		return err
	}
	if *save != "" {
		if err := saveTrace(*save, trace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace saved to %s\n", *save)
	}

	source := *app
	if *load != "" {
		source = *load
	}
	if *stream {
		o.printf("RapidMRC for %s (streamed, %d-entry log, no trace buffered)\n", source, stats.Captured)
		o.printf("capture: %d dropped, %d stale\n", stats.Dropped, stats.Stale)
	} else {
		o.printf("RapidMRC for %s (%d-entry log)\n", source, len(trace.Lines))
		o.printf("capture: %d instr, %d Mcycles, %d dropped, %d stale\n",
			trace.Instructions, trace.Cycles/1e6, trace.Dropped, trace.Stale)
	}
	o.printf("compute: %d Mcycles, warmup %d entries (auto=%v), stack hit rate %.0f%%, %d entries converted\n",
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
		o.printf("sampling: rate %.4f, %.0f%% band mean width %.2f MPKI, %.0f effective samples\n",
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
			return err
		}
		matched := curve.Clone()
		matched.Transpose(8, real.At(8))
		o.printf("distance to real MRC (matched at 8 colors): %.2f MPKI\n\n",
			rapidmrc.Distance(matched, real))
		o.printf("%s", report.Series("colors", x, []string{"RapidMRC", "Real"},
			[][]float64{matched.MPKI, real.MPKI}))
		o.printf("%s", report.Plot(*app, []string{"RapidMRC", "Real"},
			[][]float64{matched.MPKI, real.MPKI}, 48, 12))
		return o.err
	}
	o.printf("\n")
	o.printf("%s", report.Series("colors", x, []string{"MPKI"}, [][]float64{curve.MPKI}))
	o.printf("%s", report.Plot(*app, []string{"MPKI"}, [][]float64{curve.MPKI}, 48, 12))
	return o.err
}

// output writes the report and keeps the first write error, which run
// returns.
type output struct {
	w   io.Writer
	err error
}

func (o *output) printf(format string, args ...any) {
	if o.err == nil {
		_, o.err = fmt.Fprintf(o.w, format, args...)
	}
}

// streamOnline is Online with the capture and computation fused: warm up,
// then stream one probing period straight through the incremental engine.
func streamOnline(app string, epoch int, opts []rapidmrc.SystemOption, printEpoch func(int, *rapidmrc.Curve)) (*rapidmrc.Curve, *rapidmrc.Stats, error) {
	sys, err := rapidmrc.NewSystem(app, opts...)
	if err != nil {
		return nil, nil, err
	}
	sys.Run(500_000)
	return sys.Stream(epoch, func(e rapidmrc.StreamEpoch) {
		printEpoch(e.Entries, e.Curve)
	})
}

// streamFromFile replays an archived trace through Session.RunPeriod,
// as System.Stream runs a live capture: the file is read on this
// goroutine, a chunk at a time reaches the engine on the feeder, and the
// whole log is never resident. Epochs are stamped with the archived
// progress prorated to the entries read.
func streamFromFile(path string, epoch int, printEpoch func(int, *rapidmrc.Curve)) (*rapidmrc.Curve, *rapidmrc.Stats, error) {
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
	sess, err := service.NewEnginePool(1).Open(service.TenantConfig{Engine: core.DefaultConfig(), Target: r.Len()})
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	var readErr error
	sess.RunPeriod(service.Period{
		Capture: func(rec *service.Recorder) {
			for {
				l, err := r.Next()
				if err != nil {
					if err != io.EOF {
						readErr = err
					}
					return
				}
				rec.Sample(l)
			}
		},
		EpochEntries: epoch,
		Clock:        func(n int) uint64 { return r.Instructions() * uint64(n) / uint64(r.Len()) },
		OnEpoch: func(ep *service.Epoch) bool {
			printEpoch(ep.Entries, &rapidmrc.Curve{MPKI: ep.Result.MRC.MPKI})
			return false
		},
	})
	if readErr != nil {
		return nil, nil, readErr
	}
	ep, err := sess.Snapshot(r.Instructions())
	if err != nil {
		return nil, nil, err
	}
	res := ep.Result
	return &rapidmrc.Curve{MPKI: res.MRC.MPKI}, &rapidmrc.Stats{
		Captured:      ep.Entries,
		Converted:     ep.Converted,
		WarmupEntries: res.WarmupEntries,
		AutoWarmup:    res.AutoWarmup,
		StackHitRate:  res.StackHitRate,
		ComputeCycles: res.ModelCycles,
	}, nil
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
