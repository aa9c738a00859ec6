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
// offset. scanStoreLog must not panic, and the last-wins map it returns
// must follow from where the damage fell:
//   - a flip in a record's key, value or CRC loses that record alone;
//   - a cut keeps exactly the records that end at or before it;
//   - a flip in a record's header keeps every record wholly before it.
//     The scan may go on past the damage from a wrong end, so for a key
//     written before it, a value of a later write of the key also passes.
//
// Every value scanned must have been written for its key. Compacting
// the map and scanning again must return the same map, and compacting a
// second time must rewrite the same bytes. The seed corpus under
// testdata/fuzz/FuzzStoreLog holds an empty log, a lone header, a key
// length of storeMaxRecord+1, a flipped CRC in a middle record, a
// flipped length in a middle record, a flipped value in a key written
// again later, a duplicate key and a truncated CRC.
func FuzzStoreLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, recs []byte, at uint32, flip byte) {
		type record struct {
			key        string
			val        []byte
			start, end int // log offsets of the record's first byte and just past its last
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
			start := len(log)
			log = append(log, encodeStoreRecord(key, val)...)
			records = append(records, record{key, val, start, len(log)})
		}
		off := int(at % uint32(len(log)+1))
		hit := len(records) // the record the damage falls in
		for i, r := range records {
			if r.start <= off && off < r.end {
				hit = i
			}
		}
		// keep reports whether the scan must return record i (unless a
		// later write of its key wins); exact, whether it returns nothing
		// else.
		keep, exact := func(i int) bool { return i < hit }, true
		switch {
		case flip == 0:
			log = log[:off]
		case hit == len(records):
		case off-records[hit].start >= storeHdrLen:
			log[off] ^= flip
			keep = func(i int) bool { return i != hit }
		default:
			log[off] ^= flip
			exact = false
		}
		want := map[string][]byte{}
		last := map[string]int{} // index of the kept record want holds
		for i, r := range records {
			if keep(i) {
				want[r.key], last[r.key] = r.val, i
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
		if exact {
			assertStoreEntries(t, "scan", got, want)
		}
		// writtenSince reports whether some record from index from on
		// wrote v for k.
		writtenSince := func(k string, v []byte, from int) bool {
			for _, r := range records[from:] {
				if r.key == k && bytes.Equal(r.val, v) {
					return true
				}
			}
			return false
		}
		for k, v := range got {
			if !writtenSince(k, v, last[k]) {
				t.Fatalf("scan: key %q = %q, which no record from %d on wrote", k, v, last[k])
			}
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Fatalf("scan: lost key %q, written before the damage", k)
			}
		}

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
		assertStoreEntries(t, "rescan after compaction", again, got)
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
