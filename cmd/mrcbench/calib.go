package main

import "time"

// Host normalization. The shared 2-CPU hosts this benchmark runs on slow
// down and speed up by 15–30% over minutes, and by up to 2× for a minute
// or two, as other tenants come and go. Wall times alone then
// spread more across runs than any useful regression bound, and two sets
// of runs a quarter of an hour apart disagree by more than one. So each
// loop times a fixed reference task between its operations, and every
// end-to-end time is reported scaled to the speed at which that task
// takes refNominalMs:
//
//	reported time = measured time × refNominalMs / median(reference times)
//
// and rates inversely. The task runs only while none of the workload's
// work is in flight — between Online probes, between sweeps, and after
// every mrcd round, when both clients have finished theirs and every
// tenant is deleted — on one goroutine. It allocates nothing and touches
// only its own table, so the code under test cannot slow it down
// directly. It can indirectly: a garbage-collection cycle the workload's
// heap started may still be marking on the other CPU, and the caches hold
// the workload's data. The median over the run's many samples damps that
// but does not remove it, so a change that slows the workload through GC
// or cache pressure reads as slightly less of a regression than it is.
// The measured values stay in the record (metric "raw", meta "ref_ms")
// and in the printed table; README.md has the spreads with and without
// the scaling.

// refNominalMs is about the reference task's median time on the 2-CPU
// Xeon host the bounds in BENCHMARK.json were set on, so normalized times
// read close to measured ones there.
const refNominalMs = 1.5

// calibrate times the reference task once. Call it only while no
// operation of the workload is in flight.
func (l *loopResult) calibrate() {
	if l.refTable == nil {
		l.refTable = make([]uint32, 1<<18)
	}
	t0 := time.Now()
	referenceTask(l.refTable)
	d := time.Since(t0)
	l.refMs = append(l.refMs, ms(d))
	l.refTime += d
}

// referenceTask is data-dependent random read-modify-writes over a 1 MB
// table: the access pattern of the cache and stack models, resident in
// the L2 of the host above. Of the tasks tried (this one, the same over a
// 32 MB table, and a pure arithmetic chain) it tracked the workloads'
// slowdowns best.
func referenceTask(table []uint32) {
	x := uint64(88172645463325252)
	for i := 0; i < 150_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(table)-1)
		table[j] = table[j]*31 + uint32(i)
		if table[j]&3 == 1 {
			x += uint64(table[j])
		}
	}
}
