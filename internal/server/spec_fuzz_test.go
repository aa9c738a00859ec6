package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpec drives arbitrary JSON through the job API's trust
// boundary: decodeJobSpec (movrd's strict decoder) → Normalize → Hash.
// Nothing may panic; Normalize and Hash must accept and reject the same
// specs; a normalized spec must normalize to itself and hash like the
// raw one; and its canonical JSON must pass the strict decoder back to
// a spec with that hash. The seed corpus under testdata/fuzz/FuzzJobSpec
// holds both halves of each equivalent spelling — coexpf vs coex + pf,
// agg exact vs omitted, v 1 vs omitted — plus invalid and venue specs,
// and specs carrying the retired "shard" field, which the decoder
// rejects as an unknown field.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(raw))
		if err != nil {
			return
		}
		norm, nerr := spec.Normalize()
		h, herr := spec.Hash()
		if (nerr == nil) != (herr == nil) {
			t.Fatalf("%s: Normalize error %v, Hash error %v", raw, nerr, herr)
		}
		if nerr != nil {
			return
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("%s: normalized spec %+v rejected: %v", raw, norm, err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("%s: Normalize not idempotent: %+v then %+v", raw, norm, again)
		}
		hn, err := norm.Hash()
		if err != nil || hn != h {
			t.Fatalf("%s: normalized spec hashes %s (%v), raw spec %s", raw, hn, err, h)
		}
		enc, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("%s: canonical encoding: %v", raw, err)
		}
		back, err := decodeJobSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: canonical encoding %s does not decode: %v", raw, enc, err)
		}
		if hb, err := back.Hash(); err != nil || hb != h {
			t.Fatalf("%s: canonical encoding %s hashes %s (%v), want %s", raw, enc, hb, err, h)
		}
	})
}
