package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// FuzzWriteView holds writeView to writeJSON on arbitrary result bytes:
// a result crosses a trust boundary when it is read back from the
// durable store. For any input json.Valid accepts, appendIndented must
// give json.Indent's bytes, and the view of the raw bytes (which may
// take the fallback) and the view of their canonical compact form (what
// an executor's json.Marshal produces, always spliced) must both equal
// writeJSON's byte for byte. Any other input must not make either
// panic. The seed corpus under testdata/fuzz/FuzzWriteView holds empty
// and nested empty containers, nesting deeper than indentRun, strings
// with escaped quotes and backslashes (one ending in an escaped
// backslash), \u escapes, exponent numbers, HTML and U+2028 strings,
// whitespace-laden input and a bare scalar.
func FuzzWriteView(f *testing.F) {
	created := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	finished := created.Add(time.Second)
	v := jobView{
		ID: "job-1", State: StateDone, SpecSHA256: "abc", CreatedAt: created,
		Spec:      JobSpec{Kind: "map", Map: &MapJobSpec{WithReflector: true}},
		StartedAt: &created, FinishedAt: &finished, ElapsedMS: 1000,
		ResultSHA: "def", TraceEvents: 3,
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if !json.Valid(raw) {
			appendIndented(nil, raw)
			rv := v
			rv.Result = raw
			recordView(writeView, http.StatusOK, rv)
			return
		}
		var want bytes.Buffer
		if err := json.Indent(&want, raw, "  ", "  "); err != nil {
			t.Fatalf("json.Indent of a valid result: %v", err)
		}
		if got, ok := appendIndented(nil, raw); !ok || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIndented = %q, %v; json.Indent gives %q", got, ok, want.Bytes())
		}
		canonical, err := json.Marshal(json.RawMessage(raw))
		if err != nil {
			t.Fatalf("marshal of a valid result: %v", err)
		}
		for name, res := range map[string][]byte{"raw": raw, "canonical": canonical} {
			rv := v
			rv.Result = res
			assertViewsEqual(t, name, http.StatusOK, rv)
		}
	})
}
