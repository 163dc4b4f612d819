package platform

import (
	"rapidmrc/internal/mem"
	"rapidmrc/internal/pmu"
)

// traceLog is a sink that appends every sample it is given, in order: the
// log a probing period writes, for tests that compare exact sequences.
type traceLog []mem.Line

func (l *traceLog) Sample(line mem.Line) { *l = append(*l, line) }

// collect runs an entries-long probing period on m and returns its log.
func collect(m *Machine, entries int) (traceLog, pmu.TraceStats) {
	var log traceLog
	st := m.CollectTrace(entries, &log)
	return log, st
}
