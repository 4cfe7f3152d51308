package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own calls into the code under test. Spans of one trial, request or
// experiment share a Trace ID; Parent is 0 for a root span.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and costs one nil check per call, which is how untraced runs
// measure without it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	seq   uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// openSpan is a span that has started but not ended.
type openSpan struct {
	span
	t *tracer
}

// start opens a span. Call end on the result; both are no-ops on a nil
// tracer.
func (t *tracer) start(trace, parent uint64, layer, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.seq++
	id := t.seq
	t.mu.Unlock()
	return openSpan{span: span{Trace: trace, ID: id, Parent: parent, Layer: layer, Name: name, Start: t.now()}, t: t}
}

// record adds a span whose times were taken by the caller (as time.Time),
// for intervals such as an open-loop request's due time that began before
// any code ran.
func (t *tracer) record(trace, parent uint64, layer, name string, from, to time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	t.spans = append(t.spans, span{Trace: trace, ID: t.seq, Parent: parent, Layer: layer, Name: name,
		Start: int64(from.Sub(t.t0)), End: int64(to.Sub(t.t0))})
	return t.seq
}

// end closes the span and returns its ID (0 on a nil tracer).
func (o openSpan) end() uint64 {
	if o.t == nil {
		return 0
	}
	o.End = o.t.now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.span)
	o.t.mu.Unlock()
	return o.ID
}

// selfTimes returns each span's self time, keyed by span ID: its duration
// minus the part of its interval covered by its child spans (overlapping
// children are counted once).
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			from, to := max(k.Start, cur), min(k.End, s.End)
			if to > from {
				covered += to - from
				cur = to
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerTime is the per-layer summary of a traced run: busy is the summed
// duration of the layer's spans, self the summed self time.
type layerTime struct {
	Layer  string `json:"layer"`
	Spans  int    `json:"spans"`
	BusyNS int64  `json:"busy_ns"`
	SelfNS int64  `json:"self_ns"`
}

// summarize returns the per-layer summary, sorted by layer name.
func summarize(spans []span) []layerTime {
	self := selfTimes(spans)
	by := map[string]*layerTime{}
	for _, s := range spans {
		lt := by[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			by[s.Layer] = lt
		}
		lt.Spans++
		lt.BusyNS += s.dur()
		lt.SelfNS += self[s.ID]
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// busy returns the summed duration of the spans with the given layer and
// name.
func busy(spans []span, layer, name string) int64 {
	var total int64
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			total += s.dur()
		}
	}
	return total
}

// writeTrace writes the spans as JSON lines, followed by one
// {"summary": ...} line per layer.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing trace %s: %w", path, err)
		}
	}
	for _, lt := range summarize(spans) {
		if err := enc.Encode(map[string]layerTime{"summary": lt}); err != nil {
			f.Close()
			return fmt.Errorf("writing trace %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
