package main

// In-memory spans, recorded from the benchmark's own files around the
// calls into each layer, and written out once the run ends.

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call: name, start, end and the span that caused it.
// IDs are indices into the owning tracer; parent -1 marks an op's root.
type span struct {
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans relative to origin. A tracer that is off records
// nothing and returns id -1, so call sites need no branches.
type tracer struct {
	name   string
	origin time.Time
	on     bool
	spans  []span
}

func (t *tracer) start(name string, parent int32) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.origin)})
	return id
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = time.Since(t.origin)
	}
}

// add records a span whose interval was measured elsewhere (the engine's
// own stage timings).
func (t *tracer) add(name string, parent int32, start, end time.Time) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent int32, fn func()) {
	id := t.start(name, parent)
	fn()
	t.end(id)
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered := time.Duration(0)
		cur := s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfByName groups self times by span name.
func (t *tracer) selfByName() map[string][]time.Duration {
	self := t.selfTimes()
	out := make(map[string][]time.Duration)
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], self[i])
	}
	return out
}

// writeSpans writes every tracer's spans as JSON lines to path.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Tracer string `json:"tracer"`
				span
			}{t.name, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
