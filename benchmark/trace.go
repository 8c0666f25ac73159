package main

import (
	"encoding/json"
	"time"
)

// span is one timed interval of the benchmark's own work, recorded around a
// call into a layer. Parent is the id of the span that caused it (-1 for
// the root); ids index tracer.spans.
type span struct {
	ID     int
	Parent int
	Name   string
	Start  time.Duration // since tracer start
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. Spans are opened at rep
// and batch granularity (a handful per second), so recording them costs
// nothing measurable and stays on for untraced reps too; what --trace 1
// adds is the CPU profile and the observation planes. Only the benchmark's
// main goroutine opens spans.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0), End: -1})
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.t0)
	return s.End - s.Start
}

// selfTimes returns, per span id, the span's duration minus the time its
// direct children cover. Children of one parent never overlap here (the
// benchmark opens them sequentially), so the sum of child durations is the
// covered interval.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format,
// which chrome://tracing and ui.perfetto.dev both load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeTrace renders the closed spans as a trace_event document. Each
// event carries its id, its parent's id and its self time in args.
func (t *tracer) chromeTrace() ([]byte, error) {
	spans := append([]span(nil), t.spans...)
	now := time.Since(t.t0)
	for i := range spans {
		if spans[i].End < 0 {
			spans[i].End = now
		}
	}
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{
				"id":      s.ID,
				"parent":  s.Parent,
				"self_us": float64(self[s.ID]) / float64(time.Microsecond),
			},
		})
	}
	return json.MarshalIndent(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
	}, "", " ")
}
