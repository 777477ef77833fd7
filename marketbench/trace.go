package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// request share its ticket as ID; spans of one epoch share the epoch number.
// Parent is the Seq of the enclosing span (0 = none). Times are nanoseconds
// since the traced run began.
type Span struct {
	Seq    int    `json:"seq"`
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs take the same code paths.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]Span, 0, 1<<16)} }

// add records a finished span and returns its Seq (0 when tracing is off).
func (t *tracer) add(name, id string, parent int, start, end time.Time, note string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seq := len(t.spans) + 1
	t.spans = append(t.spans, Span{Seq: seq, Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Note: note})
	return seq
}

// begin opens a span whose end is set later by finish.
func (t *tracer) begin(name, id string, parent int, start time.Time) int {
	return t.add(name, id, parent, start, start, "")
}

func (t *tracer) finish(seq int, end time.Time) {
	if t == nil || seq == 0 {
		return
	}
	t.mu.Lock()
	t.spans[seq-1].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// update edits a recorded span (a parent or ID only known afterwards).
func (t *tracer) update(seq int, f func(*Span)) {
	if t == nil || seq == 0 {
		return
	}
	t.mu.Lock()
	f(&t.spans[seq-1])
	t.mu.Unlock()
}

// get returns copies of the given spans.
func (t *tracer) get(seqs []int) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(seqs))
	for i, q := range seqs {
		out[i] = t.spans[q-1]
	}
	return out
}

func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, indexed by Seq-1, each span's duration minus the part
// of its interval covered by the union of its children's intervals.
func selfTimes(spans []Span) []int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, kids[s.Seq])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}
