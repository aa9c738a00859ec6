package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sampleTrace exercises every event kind across two sessions, including
// a drop count and an empty session.
func sampleTrace() Trace {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return Trace{Sessions: []SessionTrace{
		{
			ID: "coex/r0/h0",
			Events: []Event{
				{T: 0, Kind: KindSessionStart},
				{T: 0, Kind: KindLinkUp, A: 0, X: 18.5},
				{T: ms(10), Kind: KindReassess, A: 0, X: 17.25, Y: 2.3e9},
				{T: 0, Kind: KindSlotGrant, A: 0, X: 0.0003, Y: 0.0125},
				{T: 0, Kind: KindAirtime, A: 0, X: 0.244, Y: 0.25},
				{T: ms(50), Kind: KindSlotReclaim, A: 1},
				{T: ms(50), Kind: KindAirtime, A: 1, X: 0, Y: 0.25},
				{T: ms(11), Kind: KindFrameOK, A: 0, X: 0.0041},
				{T: ms(22), Kind: KindFrameMiss, A: 1, X: 0.62},
				{T: ms(33), Kind: KindHandoff, A: 0, B: 2, X: 21.0},
				{T: ms(44), Kind: KindLinkDown, X: -3.5},
				{T: ms(100), Kind: KindSessionEnd, A: 7, B: 9},
			},
			Dropped: 3,
		},
		{ID: "coex/r0/h1", Events: nil},
	}}
}

func TestChromeDeterministicAndRoundTrips(t *testing.T) {
	tr := sampleTrace()
	var a, b bytes.Buffer
	if err := tr.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteChrome is not byte-deterministic")
	}
	back, err := ReadTrace(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("Chrome round-trip mismatch:\n got %+v\nwant %+v", back, tr)
	}
}

// TestChromeSchema checks the viewer-facing shape of the document: a
// traceEvents array whose entries carry the trace-event-format required
// fields, with sessions as named processes, slot grants as complete
// slices, and blockage reclaims as instant events.
func TestChromeSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome doc is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	var processNames, slots, instants, counters, frames int
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if ph == "" {
			t.Fatalf("event without ph: %v", ev)
		}
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event without pid: %v", ev)
		}
		if ph != "M" {
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("non-metadata event without ts: %v", ev)
			}
		}
		switch {
		case ph == "M" && name == "process_name":
			processNames++
		case ph == "X" && name == "slot":
			slots++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("slot slice without dur: %v", ev)
			}
		case ph == "X" && name == "frame":
			frames++
		case ph == "i":
			instants++
			if s, _ := ev["s"].(string); s != "t" {
				t.Fatalf("instant event without thread scope: %v", ev)
			}
		case ph == "C":
			counters++
		}
	}
	if processNames != 2 {
		t.Errorf("process_name metadata = %d, want 2 (one per session)", processNames)
	}
	if slots == 0 {
		t.Error("no slot-grant slices")
	}
	if frames == 0 {
		t.Error("no frame slices")
	}
	if instants == 0 {
		t.Error("no instant events (blockage/glitch/link)")
	}
	if counters == 0 {
		t.Error("no counter series")
	}
}

// TestReadTraceRejectsGarbage: anything but a Chrome document that
// embeds the canonical trace is refused, the JSON-lines layout an older
// exporter wrote included.
func TestReadTraceRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"empty":          "",
		"not json":       "not json\n",
		"no movr key":    `{"traceEvents":[]}`,
		"trailing value": `{"movr":{"sessions":[]}} {}`,
		"json lines":     `{"sid":"x","meta":true}` + "\n" + `{"sid":"x","t_ns":1,"kind":"frame_ok"}` + "\n",
	} {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// TestWriteFileRoundTrips: WriteFile writes the Chrome document whatever
// the path's extension, and ReadTraceFile reads it back equal, the trace
// with no sessions included.
func TestWriteFileRoundTrips(t *testing.T) {
	dir := t.TempDir()
	for name, tr := range map[string]Trace{"trace.json": sampleTrace(), "trace.jsonl": sampleTrace(), "empty.json": {}} {
		path := filepath.Join(dir, name)
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTraceFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("%s: round trip gave %+v, want %+v", name, back, tr)
		}
	}
}
