package obs

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to the trace reader. ReadTrace,
// Analyze and Render must never panic; a trace ReadTrace accepts must
// hold only known event kinds, and written back as JSONL and as a
// Chrome document it must read back equal (nil and empty slices alike).
// A trace with no sessions has no JSONL form — WriteJSONL writes
// nothing and an empty input is not a trace — so it round-trips through
// the Chrome document only. The seed corpus under
// testdata/fuzz/FuzzReadTrace holds a JSONL trace, a Chrome trace, a
// Chrome document with a kind-0 event, `{}`, an event line before any
// meta line, and a frame latency whose Chrome duration overflows.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		_ = Analyze(tr).Render()
		for _, s := range tr.Sessions {
			for _, ev := range s.Events {
				if ev.Kind == 0 || ev.Kind >= kindMax {
					t.Fatalf("session %q: accepted unknown event kind %d", s.ID, ev.Kind)
				}
			}
		}
		writers := map[string]func(io.Writer) error{"chrome": tr.WriteChrome}
		if len(tr.Sessions) > 0 {
			writers["jsonl"] = tr.WriteJSONL
		}
		for name, write := range writers {
			var buf bytes.Buffer
			if err := write(&buf); err != nil {
				t.Fatalf("%s: write: %v", name, err)
			}
			back, err := ReadTrace(&buf)
			if err != nil {
				t.Fatalf("%s: read back: %v\n%s", name, err, buf.Bytes())
			}
			if !reflect.DeepEqual(canonicalTrace(back), canonicalTrace(tr)) {
				t.Fatalf("%s: round trip changed the trace:\n got %+v\nwant %+v", name, back, tr)
			}
		}
	})
}

// canonicalTrace maps nil and empty slices to nil, the two spellings
// the formats do not tell apart.
func canonicalTrace(tr Trace) Trace {
	var out Trace
	for _, s := range tr.Sessions {
		if len(s.Events) == 0 {
			s.Events = nil
		}
		out.Sessions = append(out.Sessions, s)
	}
	return out
}
