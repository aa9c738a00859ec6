package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreLog drives the durable result log through crashes and bit
// rot. The fuzzer picks a list of records, each spelled as a key-length
// byte (mod 4, so keys collide), a value-length byte (mod 16), then the
// key and value bytes; they are encoded back to back, and the log is
// then cut at, or has one byte XORed with flip at, a fuzz-chosen
// offset. scanStoreLog must not panic and must return exactly the
// last-wins map of the records that end at or before that offset — the
// ones no damage reached. Compacting that map and scanning again must
// return the same map, and compacting a second time must rewrite the
// same bytes. The seed corpus under testdata/fuzz/FuzzStoreLog holds an
// empty log, a lone header, a key length of storeMaxRecord+1, a flipped
// CRC in a middle record, a duplicate key and a truncated CRC.
func FuzzStoreLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, recs []byte, at uint32, flip byte) {
		type record struct {
			key string
			val []byte
			end int // log offset just past the record
		}
		var log []byte
		var records []record
		for len(recs) >= 2 {
			kl, vl := int(recs[0]%4), int(recs[1]%16)
			recs = recs[2:]
			if kl+vl > len(recs) {
				break
			}
			key, val := string(recs[:kl]), append([]byte(nil), recs[kl:kl+vl]...)
			recs = recs[kl+vl:]
			log = append(log, encodeStoreRecord(key, val)...)
			records = append(records, record{key, val, len(log)})
		}
		off := int(at % uint32(len(log)+1))
		if flip == 0 {
			log = log[:off]
		} else if off < len(log) {
			log[off] ^= flip
		}
		want := map[string][]byte{}
		for _, r := range records {
			if r.end <= off {
				want[r.key] = r.val
			}
		}

		path := filepath.Join(t.TempDir(), storeLogName)
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := scanStoreLog(path)
		if err != nil {
			t.Fatal(err)
		}
		assertStoreEntries(t, "scan", got, want)

		if err := compactStoreLog(path, got); err != nil {
			t.Fatal(err)
		}
		compacted, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		again, err := scanStoreLog(path)
		if err != nil {
			t.Fatal(err)
		}
		assertStoreEntries(t, "rescan after compaction", again, want)
		if err := compactStoreLog(path, again); err != nil {
			t.Fatal(err)
		}
		twice, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(twice, compacted) {
			t.Fatalf("second compaction rewrote %d bytes as %d different bytes", len(compacted), len(twice))
		}
	})
}

func assertStoreEntries(t *testing.T, stage string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", stage, len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || !bytes.Equal(g, v) {
			t.Fatalf("%s: key %q = %q (present %v), want %q", stage, k, g, ok, v)
		}
	}
}
