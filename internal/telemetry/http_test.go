package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestNilSinkIsSafe(t *testing.T) {
	var s *Sink
	if s.Recorder() != nil || s.Metrics() != nil {
		t.Error("nil sink must hand out nil components")
	}
	s.SetGCLog(func(io.Writer) {})
	s.SetEndpoint("kv", func() any { return nil })
	s.Recorder().Record(EvPageAlloc, 0, 0, 0)
	s.Metrics().Counter("x", "").Inc()
}

func TestSinkEndpoints(t *testing.T) {
	sink := NewSink()
	sink.Metrics().Counter("hcsgc_gc_cycles_total", "Cycles.").Add(2)
	sink.Recorder().BeginSpan(SpanMark, 1)
	sink.Recorder().EndSpan(SpanMark, 1)
	sink.SetGCLog(func(w io.Writer) { io.WriteString(w, "[gc] hello\n") })

	srv := httptest.NewServer(sink.Handler())
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.Contains(metrics, "hcsgc_gc_cycles_total 2") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "hcsgc_telemetry_dropped_events") {
		t.Errorf("/metrics missing loss gauges:\n%s", metrics)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}

	traceBody, _ := get("/trace")
	var tf TraceFile
	if err := json.Unmarshal([]byte(traceBody), &tf); err != nil {
		t.Fatalf("/trace does not parse: %v", err)
	}
	if len(tf.TraceEvents) != 2 || tf.TraceEvents[0].Name != "mark" {
		t.Errorf("unexpected trace events: %+v", tf.TraceEvents)
	}

	gclog, _ := get("/gclog")
	if !strings.Contains(gclog, "[gc] hello") {
		t.Errorf("/gclog = %q", gclog)
	}

	kvNull, kvType := get("/kv")
	if strings.TrimSpace(kvNull) != "null" {
		t.Errorf("/kv without a source = %q, want null", kvNull)
	}
	if !strings.HasPrefix(kvType, "application/json") {
		t.Errorf("/kv content type %q", kvType)
	}
	sink.SetEndpoint("kv", func() any { return map[string]int{"hits": 7} })
	kvBody, _ := get("/kv")
	var kv map[string]int
	if err := json.Unmarshal([]byte(kvBody), &kv); err != nil || kv["hits"] != 7 {
		t.Errorf("/kv = %q (err %v), want hits 7", kvBody, err)
	}

	// The index is generated from the endpoint table: every path it
	// advertises answers, and an unset snapshot endpoint answers null.
	index, _ := get("/")
	for _, path := range strings.Fields("/metrics /trace /gclog /mmu /kv /flightrecorder /signals /contention /tailattr /overload") {
		if !strings.Contains(index, path) {
			t.Errorf("index lost %s: %q", path, index)
		}
	}
	for _, path := range sink.Endpoints() {
		if !strings.Contains(index, path) {
			t.Errorf("index missing %s: %q", path, index)
		}
		body, _ := get(path)
		name := strings.TrimPrefix(path, "/")
		if _, snapshot := sink.snapshots[name]; snapshot && name != "kv" && strings.TrimSpace(body) != "null" {
			t.Errorf("%s without a source = %q, want null", path, body)
		}
	}

	// The latest source installed under a name wins.
	sink.SetEndpoint("kv", func() any { return map[string]int{"hits": 9} })
	if body, _ := get("/kv"); !strings.Contains(body, "9") {
		t.Errorf("/kv after a second SetEndpoint = %q, want hits 9", body)
	}
}

// TestSetEndpointUnknownName: the endpoint table is fixed, so a name
// outside it is a caller typo and must not install a source nothing serves.
func TestSetEndpointUnknownName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetEndpoint with a name outside the table must panic")
		}
	}()
	NewSink().SetEndpoint("kvv", func() any { return nil })
}

func TestSinkServe(t *testing.T) {
	sink := NewSink()
	srv, err := sink.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
