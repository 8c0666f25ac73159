package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
)

// Sink bundles the live observability surface of one runtime (or a
// sequence of runtimes sharing it): the event recorder, the metrics
// registry, and an optional GC-log renderer. A nil *Sink is the disabled
// state — its accessors return nil, and nil recorders/metrics are no-ops.
type Sink struct {
	rec *Recorder
	reg *Registry

	mu          sync.Mutex
	gclog       func(io.Writer)
	flight      func(io.Writer) error
	flightRearm func()
	snapshots   map[string]func() any // one key per snapshotEndpoints name; nil = unset

	// droppedEvents mirrors the recorder's contention-loss counter into the
	// registry at scrape time so exporters can alert on telemetry loss
	// (ring wrap-around is the recorder's Overwritten, not a series: a
	// bounded ring overwrites by design).
	droppedEvents *Gauge
}

// NewSink builds a sink with default recorder sizing.
func NewSink() *Sink {
	reg := NewRegistry()
	snapshots := map[string]func() any{}
	for _, name := range snapshotEndpoints {
		snapshots[name] = nil
	}
	return &Sink{
		rec:       NewRecorder(0, 0),
		reg:       reg,
		snapshots: snapshots,
		droppedEvents: reg.Gauge("hcsgc_telemetry_dropped_events",
			"Events lost to recorder shard contention."),
	}
}

// Recorder returns the event recorder (nil on a nil sink).
func (s *Sink) Recorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// Metrics returns the metrics registry (nil on a nil sink).
func (s *Sink) Metrics() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// SetGCLog installs the renderer behind the /gclog endpoint (typically
// Collector.WriteGCLog). Nil-safe; the latest runtime wins when several
// share the sink.
func (s *Sink) SetGCLog(fn func(io.Writer)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.gclog = fn
	s.mu.Unlock()
}

// WriteGCLog renders the installed GC log to w, outside any HTTP request.
// The chaos soak uses it to capture a failing run's log as an artifact.
// A sink without an installed renderer writes nothing.
func (s *Sink) WriteGCLog(w io.Writer) {
	if s == nil {
		return
	}
	s.mu.Lock()
	fn := s.gclog
	s.mu.Unlock()
	if fn != nil {
		fn(w)
	}
}

// snapshotEndpoints is the fixed table of JSON snapshot endpoints. Each
// serves what SetEndpoint last installed under its name, rendered as
// indented JSON ("null" until something is installed).
var snapshotEndpoints = []string{
	"mmu",        // minimum-mutator-utilization curve (latency.Tracker.MMUSnapshot)
	"kv",         // KV serving report (kvstore.Metrics.Report)
	"signals",    // flight window of the cycle log (latency.Tracker.Window)
	"contention", // ranked lock sites and CAS loops (contention.Plane.Snapshot)
	"tailattr",   // request-level tail attribution (kvstore.Metrics.Tail)
	"overload",   // KV request outcomes and goodput accounting (kvstore.Metrics.Outcomes)
}

// SetEndpoint installs the snapshot source behind the /name endpoint;
// name must be one of snapshotEndpoints (anything else is a caller typo
// and panics). Nil-safe; the latest runtime or workload wins when several
// share the sink.
func (s *Sink) SetEndpoint(name string, fn func() any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	_, known := s.snapshots[name]
	if known {
		s.snapshots[name] = fn
	}
	s.mu.Unlock()
	if !known {
		panic(fmt.Sprintf("telemetry: SetEndpoint(%q): not one of %v", name, snapshotEndpoints))
	}
}

// SetFlightRecorder installs the dump renderer behind the /flightrecorder
// endpoint (typically a closure over latency.Tracker.WriteFlight) and the
// dump-budget reset behind its ?rearm=1 parameter (typically
// latency.Tracker.Rearm). Nil-safe; the latest runtime wins.
func (s *Sink) SetFlightRecorder(dump func(io.Writer) error, rearm func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.flight, s.flightRearm = dump, rearm
	s.mu.Unlock()
}

// Endpoints lists every path the handler serves, in index order.
func (s *Sink) Endpoints() []string {
	paths := []string{"/metrics", "/trace", "/gclog", "/flightrecorder"}
	for _, name := range snapshotEndpoints {
		paths = append(paths, "/"+name)
	}
	return paths
}

// Handler returns the HTTP mux serving /metrics (Prometheus text),
// /trace (Chrome trace_event JSON), /gclog (ZGC-style text log),
// /flightrecorder (latency flight-recorder dump; ?rearm=1 resets the
// auto-dump budget) and the JSON snapshot endpoints of snapshotEndpoints.
func (s *Sink) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.syncLossGauge()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteTrace(w, s.rec.Snapshot())
	})
	mux.HandleFunc("/gclog", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		fn := s.gclog
		s.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if fn == nil {
			fmt.Fprintln(w, "no collector attached")
			return
		}
		fn(w)
	})
	mux.HandleFunc("/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		fn := s.flight
		rearm := s.flightRearm
		s.mu.Unlock()
		if r.URL.Query().Get("rearm") == "1" && rearm != nil {
			rearm()
		}
		w.Header().Set("Content-Type", "application/json")
		if fn == nil {
			io.WriteString(w, "null\n")
			return
		}
		fn(w)
	})
	for _, name := range snapshotEndpoints {
		mux.HandleFunc("/"+name, func(w http.ResponseWriter, _ *http.Request) {
			s.mu.Lock()
			fn := s.snapshots[name]
			s.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			if fn == nil {
				io.WriteString(w, "null\n")
				return
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(fn())
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "hcsgc telemetry:", strings.Join(s.Endpoints(), " "))
	})
	return mux
}

func (s *Sink) syncLossGauge() {
	s.droppedEvents.Set(float64(s.rec.Dropped()))
}

// Server is a running telemetry HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts an HTTP server for the sink on addr (e.g. ":9090" or
// "127.0.0.1:0") and returns once the listener is bound; requests are
// handled on a background goroutine.
func (s *Sink) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}
