// Trace serialization. Two formats, both deterministic (struct-driven
// field order, shortest-round-trip float formatting — byte-identical
// output for equal traces):
//
//   - JSONL: one object per line, a session meta line followed by that
//     session's events — the grep/jq-friendly canonical form.
//   - Chrome trace-event JSON: a {"traceEvents": [...]} document
//     loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//     Sessions render as processes, with a lifecycle span, an airtime
//     track (slot grants as slices, blockage reclaims as instant
//     events), a frame track (deliveries as slices, glitches as
//     instants) and a link track (handoffs and path invalidations),
//     plus SNR/rate/airtime counter series. The document also embeds
//     the canonical Trace under the top-level "movr" key — viewers
//     ignore it, and ReadTrace round-trips from it exactly.
//
// ReadTrace auto-detects the format.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// jsonlLine is the JSONL wire record: a session meta line (Meta=true,
// Events/Dropped set) or one event (Kind etc. set).
type jsonlLine struct {
	SID     string  `json:"sid"`
	Meta    bool    `json:"meta,omitempty"`
	Events  int     `json:"events,omitempty"`
	Dropped uint64  `json:"dropped,omitempty"`
	TNS     int64   `json:"t_ns,omitempty"`
	Kind    string  `json:"kind,omitempty"`
	A       int32   `json:"a,omitempty"`
	B       int32   `json:"b,omitempty"`
	X       float64 `json:"x,omitempty"`
	Y       float64 `json:"y,omitempty"`
}

// WriteJSONL renders the trace as JSON lines: for each session a meta
// line, then its events in order.
func (tr Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range tr.Sessions {
		if err := enc.Encode(jsonlLine{SID: s.ID, Meta: true, Events: len(s.Events), Dropped: s.Dropped}); err != nil {
			return err
		}
		for _, ev := range s.Events {
			line := jsonlLine{
				SID:  s.ID,
				TNS:  ev.T.Nanoseconds(),
				Kind: ev.Kind.String(),
				A:    ev.A,
				B:    ev.B,
				X:    ev.X,
				Y:    ev.Y,
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// readJSONL parses the WriteJSONL format.
func readJSONL(r io.Reader) (Trace, error) {
	var tr Trace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var line jsonlLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return Trace{}, fmt.Errorf("obs: jsonl line %d: %w", lineNo, err)
		}
		if line.Meta {
			tr.Sessions = append(tr.Sessions, SessionTrace{ID: line.SID, Dropped: line.Dropped})
			continue
		}
		if len(tr.Sessions) == 0 {
			return Trace{}, fmt.Errorf("obs: jsonl line %d: event before any session meta line", lineNo)
		}
		s := &tr.Sessions[len(tr.Sessions)-1]
		if line.SID != s.ID {
			return Trace{}, fmt.Errorf("obs: jsonl line %d: event sid %q under session %q", lineNo, line.SID, s.ID)
		}
		k, ok := ParseKind(line.Kind)
		if !ok {
			return Trace{}, fmt.Errorf("obs: jsonl line %d: unknown event kind %q", lineNo, line.Kind)
		}
		s.Events = append(s.Events, Event{
			T: time.Duration(line.TNS), Kind: k, A: line.A, B: line.B, X: line.X, Y: line.Y,
		})
	}
	if err := sc.Err(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// Chrome trace-event JSON. Track (tid) layout per session process:
const (
	tidLifecycle = 1 // session span
	tidAirtime   = 2 // slot grants + blockage reclaims
	tidFrames    = 3 // frame deliveries + glitches
	tidLink      = 4 // handoffs, link up/down
)

// chromeDoc is the JSON object format of the trace-event spec, plus
// the embedded canonical trace under "movr" (unknown top-level keys
// are legal metadata viewers ignore).
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Movr            Trace         `json:"movr"`
}

type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	S    string  `json:"s,omitempty"`
	Args any     `json:"args,omitempty"`
}

func usec(t time.Duration) float64 { return float64(t.Nanoseconds()) / 1e3 }

// WriteChrome renders the trace as a Chrome trace-event JSON document
// loadable in Perfetto, with the canonical trace embedded for exact
// round-tripping.
func (tr Trace) WriteChrome(w io.Writer) error {
	doc := chromeDoc{
		TraceEvents:     tr.chromeEvents(),
		DisplayTimeUnit: "ms",
		Movr:            tr,
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeEvents builds the visualization events for every session.
func (tr Trace) chromeEvents() []chromeEvent {
	type nameArg struct {
		Name string `json:"name"`
	}
	evs := make([]chromeEvent, 0, 64)
	for i, s := range tr.Sessions {
		pid := i + 1
		evs = append(evs,
			chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: nameArg{s.ID}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tidLifecycle, Args: nameArg{"session"}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tidAirtime, Args: nameArg{"airtime"}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tidFrames, Args: nameArg{"frames"}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tidLink, Args: nameArg{"link"}},
		)
		evs = append(evs, sessionSpan(pid, s)...)
		for _, ev := range s.Events {
			evs = append(evs, renderEvent(pid, ev)...)
		}
	}
	return evs
}

// sessionSpan renders the lifecycle complete-event from the session
// start/end markers (falling back to the event extent when either is
// missing).
func sessionSpan(pid int, s SessionTrace) []chromeEvent {
	if len(s.Events) == 0 {
		return nil
	}
	start, end := s.Events[0].T, s.Events[0].T
	var delivered, frames int32
	for _, ev := range s.Events {
		if ev.T < start {
			start = ev.T
		}
		if ev.T > end {
			end = ev.T
		}
		switch ev.Kind {
		case KindSessionStart:
			start = ev.T
		case KindSessionEnd:
			end = ev.T
			delivered, frames = ev.A, ev.B
		}
	}
	return []chromeEvent{{
		Name: "session", Ph: "X", Pid: pid, Tid: tidLifecycle,
		Ts: usec(start), Dur: usec(end - start),
		Args: struct {
			Delivered int32 `json:"delivered"`
			Frames    int32 `json:"frames"`
		}{delivered, frames},
	}}
}

// renderEvent maps one canonical event onto its visualization form.
func renderEvent(pid int, ev Event) []chromeEvent {
	switch ev.Kind {
	case KindSessionStart, KindSessionEnd:
		return nil // folded into the lifecycle span
	case KindLinkUp:
		return []chromeEvent{{Name: "link_up", Ph: "i", Pid: pid, Tid: tidLink, Ts: usec(ev.T), S: "t",
			Args: struct {
				Path  int32   `json:"path"`
				SNRdB float64 `json:"snr_db"`
			}{ev.A, ev.X}}}
	case KindLinkDown:
		return []chromeEvent{{Name: "link_down", Ph: "i", Pid: pid, Tid: tidLink, Ts: usec(ev.T), S: "t",
			Args: struct {
				SNRdB float64 `json:"snr_db"`
			}{ev.X}}}
	case KindHandoff:
		return []chromeEvent{{Name: "handoff", Ph: "i", Pid: pid, Tid: tidLink, Ts: usec(ev.T), S: "t",
			Args: struct {
				From  int32   `json:"from"`
				To    int32   `json:"to"`
				SNRdB float64 `json:"snr_db"`
			}{ev.A, ev.B, ev.X}}}
	case KindReassess:
		return []chromeEvent{
			{Name: "snr_db", Ph: "C", Pid: pid, Ts: usec(ev.T),
				Args: struct {
					SNRdB float64 `json:"snr_db"`
				}{ev.X}},
			{Name: "rate_gbps", Ph: "C", Pid: pid, Ts: usec(ev.T),
				Args: struct {
					RateGbps float64 `json:"rate_gbps"`
				}{ev.Y / 1e9}},
		}
	case KindSlotGrant:
		start := time.Duration(ev.X * float64(time.Second))
		end := time.Duration(ev.Y * float64(time.Second))
		return []chromeEvent{{Name: "slot", Ph: "X", Pid: pid, Tid: tidAirtime,
			Ts: usec(start), Dur: usec(end - start),
			Args: struct {
				Win int32 `json:"win"`
			}{ev.A}}}
	case KindSlotReclaim:
		return []chromeEvent{{Name: "blocked", Ph: "i", Pid: pid, Tid: tidAirtime, Ts: usec(ev.T), S: "t",
			Args: struct {
				Win int32 `json:"win"`
			}{ev.A}}}
	case KindAirtime:
		return []chromeEvent{{Name: "airtime", Ph: "C", Pid: pid, Ts: usec(ev.T),
			Args: struct {
				Received float64 `json:"received"`
				Entitled float64 `json:"entitled"`
			}{ev.X, ev.Y}}}
	case KindFrameOK:
		return []chromeEvent{{Name: "frame", Ph: "X", Pid: pid, Tid: tidFrames,
			Ts: usec(ev.T), Dur: sanitize(ev.X * 1e6), // a latency past 1.8e302 s overflows
			Args: struct {
				Frame int32 `json:"frame"`
			}{ev.A}}}
	case KindFrameMiss:
		return []chromeEvent{{Name: "glitch", Ph: "i", Pid: pid, Tid: tidFrames, Ts: usec(ev.T), S: "t",
			Args: struct {
				Frame         int32   `json:"frame"`
				DeliveredFrac float64 `json:"delivered_frac"`
			}{ev.A, ev.X}}}
	}
	return nil
}

// ReadTrace parses a trace in either serialized format, auto-detected:
// a Chrome document (a JSON object embedding "movr") or JSONL.
func ReadTrace(r io.Reader) (Trace, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return Trace{}, err
	}
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return Trace{}, fmt.Errorf("obs: empty trace input")
	}
	// A Chrome document is one JSON object spanning the whole input; a
	// JSONL file's first line is a small object of its own. Try the
	// Chrome shape first — a JSONL input fails it immediately (trailing
	// lines), and vice versa.
	if trimmed[0] == '{' {
		var doc struct {
			Movr *Trace `json:"movr"`
		}
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		if err := dec.Decode(&doc); err == nil && !dec.More() && doc.Movr != nil {
			if err := doc.Movr.checkKinds(); err != nil {
				return Trace{}, err
			}
			return *doc.Movr, nil
		}
	}
	return readJSONL(bytes.NewReader(trimmed))
}

// checkKinds rejects an embedded event whose kind is outside the wire
// vocabulary, as readJSONL does for an unknown kind name.
func (tr Trace) checkKinds() error {
	for _, s := range tr.Sessions {
		for i, ev := range s.Events {
			if ev.Kind == 0 || ev.Kind >= kindMax {
				return fmt.Errorf("obs: chrome session %q event %d: unknown event kind %d", s.ID, i, ev.Kind)
			}
		}
	}
	return nil
}

// ReadTraceFile reads and parses a trace file.
func ReadTraceFile(path string) (Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return Trace{}, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// WriteFile writes the trace to path, choosing the format from the
// extension: .jsonl writes JSONL, everything else the Chrome document.
func (tr Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.writeByExt(path, f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func (tr Trace) writeByExt(path string, w io.Writer) error {
	if strings.HasSuffix(path, ".jsonl") {
		return tr.WriteJSONL(w)
	}
	return tr.WriteChrome(w)
}
