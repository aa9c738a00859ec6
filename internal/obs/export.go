// Trace serialization: one deterministic format (struct-driven field
// order, shortest-round-trip float formatting — byte-identical output
// for equal traces), Chrome trace-event JSON. A {"traceEvents": [...]}
// document loads in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Sessions render as processes, with a lifecycle span, an airtime track
// (slot grants as slices, blockage reclaims as instant events), a frame
// track (deliveries as slices, glitches as instants) and a link track
// (handoffs and path invalidations), plus SNR/rate/airtime counter
// series. The document also embeds the canonical Trace under the
// top-level "movr" key — viewers ignore it, and ReadTrace round-trips
// from it exactly.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

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

// ReadTrace parses a Chrome document written by WriteChrome: one JSON
// object that embeds the canonical trace under "movr".
func ReadTrace(r io.Reader) (Trace, error) {
	var doc struct {
		Movr *Trace `json:"movr"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return Trace{}, fmt.Errorf("obs: not a trace document: %w", err)
	}
	if dec.More() {
		return Trace{}, fmt.Errorf("obs: trailing data after the trace document")
	}
	if doc.Movr == nil {
		return Trace{}, fmt.Errorf(`obs: trace document has no "movr" trace`)
	}
	if err := doc.Movr.checkKinds(); err != nil {
		return Trace{}, err
	}
	return *doc.Movr, nil
}

// checkKinds rejects an embedded event whose kind is outside the wire
// vocabulary.
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

// WriteFile writes the trace to path as a Chrome document. A failed
// write removes the file rather than leave one ReadTrace cannot read.
func (tr Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(path) // the write error is the one to report
	}
	return err
}
