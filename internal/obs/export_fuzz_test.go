package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to the trace reader. ReadTrace,
// Analyze and Render must never panic; a trace ReadTrace accepts must
// hold only known event kinds and round-trip through WriteChrome. The
// seed corpus under testdata/fuzz/FuzzReadTrace holds a Chrome trace, a
// Chrome document with a kind-0 event, `{}`, a frame latency whose
// Chrome duration overflows, and three JSON-lines inputs in the layout
// an older exporter wrote, which must be rejected.
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
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
	})
}
