package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Start and End
// are nanoseconds since the tracer's epoch; Parent indexes the enclosing
// span (-1 for a root); ID groups the spans of one lookup or session
// (0 when the call serves no single request); Name indexes the
// tracer's name table, which keeps a span at 32 bytes.
type span struct {
	Start, End int64
	ID         int64
	Parent     int32
	Name       uint16
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// is the untraced mode: every method returns at once without reading
// the clock. Single-threaded callers nest spans with begin/end; calls
// made from the sharded ring's shard goroutines use record, which takes
// the parent explicitly and is safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	stack  []int32
	names  []string
	nameID map[string]uint16
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), nameID: make(map[string]uint16)} }

// intern returns name's index in the name table; callers hold mu.
func (t *tracer) intern(name string) uint16 {
	id, ok := t.nameID[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameID[name] = id
	}
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string, id int64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: t.intern(name), Start: t.now(), Parent: parent, ID: id})
	t.mu.Unlock()
	t.stack = append(t.stack, idx)
	return idx
}

// end closes the span begin returned.
func (t *tracer) end(idx int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[idx].End = t.now()
	t.mu.Unlock()
	t.stack = t.stack[:len(t.stack)-1]
}

// open returns the innermost open span (-1 when none or untraced): the
// parent for spans the sharded ring's shard goroutines record while the
// driving goroutine is inside RunUntil.
func (t *tracer) open() int32 {
	if t == nil || len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// mark returns a start timestamp for record (0 when untraced).
func (t *tracer) mark() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// record appends a finished span that began at start.
func (t *tracer) record(name string, parent int32, id, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: t.intern(name), Start: start, End: end, Parent: parent, ID: id})
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, id int64, fn func()) {
	sp := t.begin(name, id)
	fn()
	t.end(sp)
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	// Busy sums the spans' durations; Self subtracts the time their
	// direct children cover. Seconds.
	Busy, Self float64
	// Durs are the individual durations in ms (for per-call quantiles).
	Durs []float64
}

// stats aggregates spans by name.
func (t *tracer) stats() map[string]*spanStats {
	out := make(map[string]*spanStats)
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		st := out[t.names[s.Name]]
		if st == nil {
			st = &spanStats{}
			out[t.names[s.Name]] = st
		}
		d := s.End - s.Start
		st.Busy += float64(d) / 1e9
		st.Self += float64(d-child[i]) / 1e9
		st.Durs = append(st.Durs, float64(d)/1e6)
	}
	return out
}

// layerSelf sums the self time of every span whose name starts with
// "<layer>.".
func layerSelf(st map[string]*spanStats, layer string) float64 {
	total := 0.0
	for name, s := range st {
		if strings.HasPrefix(name, layer+".") {
			total += s.Self
		}
	}
	return total
}

// layerBusy sums the busy time of the spans named "<layer>.<op>" for
// the given ops.
func layerBusy(st map[string]*spanStats, names ...string) float64 {
	total := 0.0
	for _, n := range names {
		if s := st[n]; s != nil {
			total += s.Busy
		}
	}
	return total
}

// write dumps every span as gzip-compressed tab-separated lines:
// index, parent, name, request id, start ns, end ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "index\tparent\tname\tid\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.Parent, t.names[s.Name], s.ID, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// timedShares returns the total duration of the spans named root and,
// per layer (the span name up to its first dot), the self time of the
// spans nested in them, in seconds. A parent is always recorded before
// its children, so one pass in index order finds the nesting.
func (t *tracer) timedShares(root string) (float64, map[string]float64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	in := make([]bool, len(t.spans))
	total := 0.0
	self := make(map[string]float64)
	for i, s := range t.spans {
		name := t.names[s.Name]
		in[i] = name == root || (s.Parent >= 0 && in[s.Parent])
		if !in[i] {
			continue
		}
		d := s.End - s.Start
		if name == root {
			total += float64(d) / 1e9
		}
		layer, _, _ := strings.Cut(name, ".")
		self[layer] += float64(d-child[i]) / 1e9
	}
	return total, self
}
