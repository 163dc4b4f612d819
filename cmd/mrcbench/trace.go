package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are recorded from the
// benchmark's own files, around the calls it makes into each layer; the
// program itself carries no spans.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent indexes the span that caused this one; -1 for a root.
	Parent int `json:"parent"`
	// Req identifies the request or operation the span belongs to; spans
	// of one HTTP request share it across client and handler.
	Req uint64 `json:"req"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer is the untraced run: every method is a no-op that reads no
// clock, so the end-to-end numbers carry no tracing cost.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span             // guarded by mu
	counters map[string]float64 // guarded by mu
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: make(map[string]float64)}
}

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name string, parent int, req uint64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// beginRequest opens the root span of one client request; the request's
// id is derived from the span's index, which the handler span learns from
// requestHeader.
func (t *tracer) beginRequest(name string) int {
	if t == nil {
		return -1
	}
	id := t.begin(name, -1, 0)
	t.mu.Lock()
	t.spans[id].Req = requestID(id)
	t.mu.Unlock()
	return id
}

// requestID is the request id of the client span with the given index.
func requestID(span int) uint64 { return uint64(span) + 1 }

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add accumulates a counter recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// requestHeader carries the client span's index to the handler span, so
// the two halves of one HTTP request share a request id and the handler
// span is the client span's child.
const requestHeader = "X-Request-Id"

// middleware wraps the daemon's handler in a span per request.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(requestHeader))
		if err != nil {
			parent = -1
		}
		id := t.begin(handlerSpan(r), parent, requestID(parent))
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

// handlerSpan names a handler span after the route it served.
func handlerSpan(r *http.Request) string {
	switch {
	case strings.HasSuffix(r.URL.Path, "/feed"):
		return "service.http.feed"
	case strings.HasSuffix(r.URL.Path, "/curve"):
		return "service.http.curve"
	}
	return "service.http.other"
}

// analysis indexes a finished trace for the per-layer metrics.
type analysis struct {
	spans    []span
	children [][]int
	counters map[string]float64
}

func (t *tracer) analyze() *analysis {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &analysis{
		spans:    append([]span(nil), t.spans...),
		children: make([][]int, len(t.spans)),
		counters: make(map[string]float64, len(t.counters)),
	}
	for k, v := range t.counters {
		a.counters[k] = v
	}
	for i, s := range a.spans {
		if s.Parent >= 0 && s.Parent < len(a.spans) {
			a.children[s.Parent] = append(a.children[s.Parent], i)
		}
	}
	return a
}

func (s span) dur() int64 { return s.End - s.Start }

// self is a span's duration minus the part of it its children cover.
func (a *analysis) self(i int) int64 {
	p := a.spans[i]
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range a.children[i] {
		lo, hi := max(a.spans[c].Start, p.Start), min(a.spans[c].End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].lo < ivs[y].lo })
	covered, reach := int64(0), p.Start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		covered += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return p.dur() - covered
}

// total sums the durations of every span with the given name and counts
// them.
func (a *analysis) total(name string) (ns float64, n int) {
	for _, s := range a.spans {
		if s.Name == name {
			ns += float64(s.dur())
			n++
		}
	}
	return ns, n
}

// mean is the mean duration of the named spans in ns (0 when none).
func (a *analysis) mean(name string) float64 {
	ns, n := a.total(name)
	if n == 0 {
		return 0
	}
	return ns / float64(n)
}

// layerSum checks, for every root span with the given name, that the
// self times of its descendants add up to within tol of its duration:
// the layers the benchmark times account for the whole operation. It
// returns one message per span that fails.
func (a *analysis) layerSum(name string, tol float64) (fails []string) {
	for i, s := range a.spans {
		if s.Name != name {
			continue
		}
		var sum int64
		stack := append([]int(nil), a.children[i]...)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sum += a.self(c)
			stack = append(stack, a.children[c]...)
		}
		d := s.dur()
		if diff := float64(d - sum); diff > tol*float64(d) || -diff > tol*float64(d) {
			fails = append(fails, fmt.Sprintf("layer sum: %s span %d lasts %d ns but its layers sum to %d ns", name, i, d, sum))
		}
	}
	return fails
}

// writeSpans writes the spans as JSON to path.
func (a *analysis) writeSpans(path string) error {
	b, err := json.Marshal(a.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
