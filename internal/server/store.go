package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// store is the durable tier of the result cache: an append-only log of
// (spec hash → result bytes) records under the daemon's cache
// directory. Each Put appends one fsync'd record, so a completed job's
// result survives a crash the instant Put returns; a restarted daemon
// serves it from disk instead of re-burning the compute.
//
// On-disk layout (<dir>/results.log), one record per entry:
//
//	uint32 keyLen | uint32 valLen | key | val | uint32 crc32(key‖val)
//
// (little-endian; IEEE CRC). The log is append-only during operation.
// Open rebuilds the index by scanning the log, keeps the last record
// per key, skips any record that fails its CRC (bit rot — dropped,
// never propagated), drops a torn tail (a crash mid-append leaves a
// short final record), and compacts: live records are rewritten in
// sorted-key order to a temp file that atomically replaces the log, so
// dead duplicates never accumulate across restarts.
type store struct {
	mu    sync.Mutex
	f     *os.File
	index map[string]storePos // value location in f
	size  int64               // append offset
}

type storePos struct {
	off int64 // offset of the value bytes
	len int
}

const (
	storeLogName = "results.log"
	storeHdrLen  = 8 // two uint32 lengths
	storeCRCLen  = 4

	// storeMaxRecord bounds a single record's key+value size; a scanned
	// length beyond it means a corrupt header, handled like a torn tail.
	storeMaxRecord = 1 << 30
)

// openStore opens (creating if needed) the durable result store in dir.
func openStore(dir string) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	path := filepath.Join(dir, storeLogName)
	entries, err := scanStoreLog(path)
	if err != nil {
		return nil, err
	}
	if err := compactStoreLog(path, entries); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	s := &store{f: f, index: make(map[string]storePos, len(entries))}
	// The compacted layout is deterministic, so the index can be rebuilt
	// arithmetically — but re-scanning the file we just wrote verifies
	// the bytes that will actually be served.
	if err := s.reindex(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// scanStoreLog reads every valid record of the log (last write per key
// wins). A whole record that fails its CRC is skipped and the scan goes
// on from its end, so a changed byte in a record's key, value or CRC
// loses that record alone. A record that runs past the end of the file
// or past storeMaxRecord ends the scan: a crash interrupted that
// append, or its header is corrupt and gives no end to go on from.
func scanStoreLog(path string) (map[string][]byte, error) {
	entries := make(map[string][]byte)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return entries, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read log: %w", err)
	}
	off := 0
	for off+storeHdrLen <= len(raw) {
		keyLen := int(binary.LittleEndian.Uint32(raw[off:]))
		valLen := int(binary.LittleEndian.Uint32(raw[off+4:]))
		recEnd := off + storeHdrLen + keyLen + valLen + storeCRCLen
		if keyLen > storeMaxRecord || valLen > storeMaxRecord || recEnd > len(raw) {
			break // torn tail
		}
		body := raw[off+storeHdrLen : recEnd-storeCRCLen]
		if crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(raw[recEnd-storeCRCLen:]) {
			entries[string(body[:keyLen])] = append([]byte(nil), body[keyLen:]...)
		}
		off = recEnd
	}
	return entries, nil
}

// compactStoreLog rewrites the live entries (sorted by key, so the
// compacted file is deterministic) to a temp file and atomically
// renames it over the log.
func compactStoreLog(path string, entries map[string][]byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), storeLogName+".compact-*")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := tmp.Write(encodeStoreRecord(k, entries[k])); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact write: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: compact rename: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // best-effort: the data file itself is already synced
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

func encodeStoreRecord(key string, val []byte) []byte {
	rec := make([]byte, storeHdrLen+len(key)+len(val)+storeCRCLen)
	binary.LittleEndian.PutUint32(rec, uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(val)))
	copy(rec[storeHdrLen:], key)
	copy(rec[storeHdrLen+len(key):], val)
	body := rec[storeHdrLen : storeHdrLen+len(key)+len(val)]
	binary.LittleEndian.PutUint32(rec[len(rec)-storeCRCLen:], crc32.ChecksumIEEE(body))
	return rec
}

// reindex rebuilds the in-memory index from the (just-compacted) log.
func (s *store) reindex() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat: %w", err)
	}
	s.size = info.Size()
	off := int64(0)
	hdr := make([]byte, storeHdrLen)
	for off+storeHdrLen <= s.size {
		if _, err := s.f.ReadAt(hdr, off); err != nil {
			return fmt.Errorf("store: reindex: %w", err)
		}
		keyLen := int64(binary.LittleEndian.Uint32(hdr))
		valLen := int64(binary.LittleEndian.Uint32(hdr[4:]))
		recEnd := off + storeHdrLen + keyLen + valLen + storeCRCLen
		if recEnd > s.size {
			return fmt.Errorf("store: reindex: torn record at %d after compaction", off)
		}
		key := make([]byte, keyLen)
		if _, err := s.f.ReadAt(key, off+storeHdrLen); err != nil {
			return fmt.Errorf("store: reindex: %w", err)
		}
		s.index[string(key)] = storePos{off: off + storeHdrLen + keyLen, len: int(valLen)}
		off = recEnd
	}
	return nil
}

// Get reads the record stored for key from disk (key, value and CRC in
// one read) and checks that it still holds key and that its CRC
// matches: the open-time scan checked the log, but a byte can change on
// disk after it. ok is false on a miss. A record that fails its check
// is dropped from the index, so the next Put of key stores it afresh,
// and reported as err.
func (s *store) Get(key string) (val []byte, ok bool, err error) {
	s.mu.Lock()
	pos, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	rec := make([]byte, len(key)+pos.len+storeCRCLen)
	n, err := s.f.ReadAt(rec, pos.off-int64(len(key)))
	switch {
	case n < len(rec):
		err = fmt.Errorf("store: read %q: %d of %d bytes: %v", key, n, len(rec), err)
	case string(rec[:len(key)]) != key:
		err = fmt.Errorf("store: record for %q holds another key", key)
	case crc32.ChecksumIEEE(rec[:len(rec)-storeCRCLen]) != binary.LittleEndian.Uint32(rec[len(rec)-storeCRCLen:]):
		err = fmt.Errorf("store: record for %q fails its CRC", key)
	default:
		return rec[len(key) : len(key)+pos.len : len(key)+pos.len], true, nil
	}
	s.Drop(key)
	return nil, false, err
}

// Drop removes key from the index; its record stays in the log as dead
// bytes.
func (s *store) Drop(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.index, key)
}

// Put appends one fsync'd record. Results are deterministic functions
// of the key (the canonical spec hash), so an already-stored key is a
// no-op — the log never grows on repeat submissions.
func (s *store) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; ok {
		return nil
	}
	rec := encodeStoreRecord(key, val)
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	s.index[key] = storePos{off: s.size + storeHdrLen + int64(len(key)), len: len(val)}
	s.size += int64(len(rec))
	return nil
}

// Len reports the stored entry count.
func (s *store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Close closes the log file.
func (s *store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
