package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// TraceEvent is one entry of the Chrome trace_event format (the JSON
// consumed by about://tracing and Perfetto). Only the fields this
// exporter emits are modelled.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the top-level trace_event JSON object.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// classNames mirrors heap.Class for trace annotations without importing
// the heap package (telemetry stays a leaf dependency). Class 0 names no
// class.
var classNames = [...]string{1: "small", 2: "medium", 3: "large"}

func className(arg uint32) string {
	if int(arg) < len(classNames) && classNames[arg] != "" {
		return classNames[arg]
	}
	return fmt.Sprintf("class%d", arg)
}

// tracePID is the synthetic process id all events share.
const tracePID = 1

// BuildTrace converts recorder events into trace_event entries. Span
// begin/end pairs become B/E duration events on the track named by the
// recording site; everything else becomes instant or complete events.
// The events must be in the order Recorder.Snapshot returns (time
// sorted), or B/E pairs may render unbalanced.
func BuildTrace(events []Event) TraceFile {
	tf := TraceFile{DisplayTimeUnit: "ms", TraceEvents: []TraceEvent{}}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, ev := range events {
		switch ev.Kind {
		case EvSpanBegin, EvSpanEnd:
			ph := "B"
			if ev.Kind == EvSpanEnd {
				ph = "E"
			}
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: SpanID(ev.Arg).String(), Cat: "gc", Ph: ph,
				TS: us(ev.TimeNS), PID: tracePID, TID: int(ev.A),
			})
		case EvSafepointWait:
			// The wait ends at the event timestamp; render it as a
			// complete (X) slice covering the handshake.
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: "safepoint_wait", Cat: "gc", Ph: "X",
				TS: us(ev.TimeNS - int64(ev.A)), Dur: float64(ev.A) / 1e3,
				PID: tracePID, TID: 1,
				Args: map[string]any{"pause": SpanID(ev.B).String()},
			})
		case EvPageAlloc, EvPageECSelect, EvPageEvacuated, EvPageFreed:
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: ev.Kind.String(), Cat: "page", Ph: "i",
				TS: us(ev.TimeNS), PID: tracePID, TID: 1, S: "p",
				Args: map[string]any{
					"class": className(ev.Arg),
					"addr":  fmt.Sprintf("%#x", ev.A),
					"bytes": ev.B,
				},
			})
		case EvCounter:
			// Ph "C" renders a counter track; Perfetto plots the value
			// over time. One sample per GC cycle per series.
			name, cat := counterTrack(ev.Arg)
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: name, Cat: cat, Ph: "C",
				TS: us(ev.TimeNS), PID: tracePID, TID: 1,
				Args: map[string]any{"value": math.Float64frombits(ev.A)},
			})
		case EvRelocWin:
			who := "gc"
			if ev.Arg == RelocByMutator {
				who = "mutator"
			}
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: "reloc_win", Cat: "reloc", Ph: "i",
				TS: us(ev.TimeNS), PID: tracePID, TID: 1, S: "t",
				Args: map[string]any{
					"who":   who,
					"addr":  fmt.Sprintf("%#x", ev.A),
					"bytes": ev.B,
				},
			})
		}
	}
	return tf
}

// WriteTrace renders recorder events as Chrome trace_event JSON.
func WriteTrace(w io.Writer, events []Event) error {
	return json.NewEncoder(w).Encode(BuildTrace(events))
}
