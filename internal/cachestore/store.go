// Package cachestore is a disk-backed, content-addressed artifact store:
// the persistence layer under internal/resultcache. Each entry is one file
// holding a versioned, checksummed header and a codec-serialised payload,
// written crash-safely (temp file + rename) under a path sharded by the
// key's hash. Opening a store rebuilds the index from a directory scan,
// dropping corrupt, truncated, or stale-format files, and enforces an
// optional size-in-bytes bound by evicting the least recently used entries
// (access order survives restarts via file mtimes).
//
// A store directory is a pure cache: deleting it (or any file in it) is
// always safe and merely costs recomputation. Two processes may read the
// same directory; concurrent writers are safe against corruption (renames
// are atomic) but may each hold a stale view of the other's entries.
package cachestore

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"barrierpoint/internal/resultcache"
)

const (
	// magic marks a cachestore entry file.
	magic = "BPCS"
	// FormatVersion is the on-disk header version; files written by other
	// versions are dropped at startup.
	FormatVersion = 1
	// ext is the entry file suffix; foreign files are left alone.
	ext = ".bpc"
	// tmpPrefix marks in-progress writes; leftovers (a crash mid-write)
	// are removed at startup once they are stale.
	tmpPrefix = "tmp-"

	// headerSize is the fixed prefix: magic, version, codec-name length,
	// payload length, payload CRC.
	headerSize = 4 + 4 + 4 + 8 + 4
	// maxCodecName bounds the codec-name field against nonsense headers.
	maxCodecName = 255
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// tmpMaxAge is how old a temp file must be before the startup scan treats
// it as a crash leftover. Sharing one directory between processes is
// supported (bpserved plus batch runs), so a freshly created temp file may
// be another process's write in flight — deleting it would break that
// writer's rename. A real in-flight write lives milliseconds; an hour is
// decisively stale.
const tmpMaxAge = time.Hour

// errClosed is returned by operations on a closed store.
var errClosed = errors.New("cachestore: store is closed")

// Options configures a Store.
type Options struct {
	// MaxBytes bounds the store's total on-disk size (headers included);
	// <= 0 means unbounded. The bound is enforced after every write and
	// at open, evicting least recently used entries.
	MaxBytes int64
}

// entry is one on-disk artifact in the index.
type entry struct {
	name string // file base name without extension (hash of the key)
	size int64  // whole file size, header included
}

// Store is a disk-backed artifact store. Create with Open; safe for
// concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	closed  bool
	entries map[string]*list.Element
	ll      *list.List // front = most recently used
	bytes   int64

	hits, misses, writes, evictions uint64
	evictedBytes                    int64
	droppedCorrupt                  uint64
}

// Open creates (or reopens) a store rooted at dir. The directory is
// created if missing; existing entries are scanned back into the index,
// invalid files are deleted, and the byte bound is enforced before Open
// returns.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("cachestore: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: opts.MaxBytes,
		entries:  make(map[string]*list.Element),
		ll:       list.New(),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// fileName hashes a cache key into an entry file base name. Keys are
// usually already hex SHA-256 strings, but hashing again costs little and
// keeps arbitrary keys path-safe.
func fileName(k resultcache.Key) string {
	sum := sha256.Sum256([]byte(k))
	return hex.EncodeToString(sum[:])
}

// path returns the sharded file path for an entry name.
func (s *Store) path(name string) string {
	return filepath.Join(s.dir, name[:2], name+ext)
}

// scan rebuilds the index from the directory tree: leftover temp files
// are removed, every entry file is fully validated (header, version,
// known codec, length, checksum), invalid files are deleted, and valid
// ones are indexed in mtime order so LRU eviction order survives
// restarts.
func (s *Store) scan() error {
	type scanned struct {
		entry
		mtime time.Time
	}
	var found []scanned
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cachestore: scanning %s: %w", s.dir, err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			if strings.HasPrefix(shard.Name(), tmpPrefix) {
				removeStaleTmp(filepath.Join(s.dir, shard.Name()), shard)
			}
			continue
		}
		shardDir := filepath.Join(s.dir, shard.Name())
		files, err := os.ReadDir(shardDir)
		if err != nil {
			continue
		}
		for _, f := range files {
			fpath := filepath.Join(shardDir, f.Name())
			if strings.HasPrefix(f.Name(), tmpPrefix) {
				removeStaleTmp(fpath, f)
				continue
			}
			if f.IsDir() || !strings.HasSuffix(f.Name(), ext) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			if _, _, err := readEntryFile(fpath); err != nil {
				// Corrupt, truncated, stale version, or unknown codec:
				// drop it — the artifact is recomputable by definition.
				os.Remove(fpath)
				s.droppedCorrupt++
				continue
			}
			found = append(found, scanned{
				entry: entry{name: strings.TrimSuffix(f.Name(), ext), size: info.Size()},
				mtime: info.ModTime(),
			})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, sc := range found {
		e := sc.entry
		s.entries[e.name] = s.ll.PushFront(&e)
		s.bytes += e.size
	}
	return nil
}

// removeStaleTmp deletes a temp file only when it is old enough to be a
// crash leftover rather than another process's write in flight.
func removeStaleTmp(path string, de os.DirEntry) {
	info, err := de.Info()
	if err == nil && time.Since(info.ModTime()) > tmpMaxAge {
		os.Remove(path)
	}
}

// readEntryFile reads and fully validates one entry file, returning the
// codec name and payload.
func readEntryFile(path string) (codecName string, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	codecName, payload, err = decodeEntryFile(data)
	if err != nil {
		return "", nil, fmt.Errorf("cachestore: %s: %w", path, err)
	}
	return codecName, payload, nil
}

// decodeEntryFile validates the bytes of one entry file, the inverse of
// encodeEntryFile. The returned payload aliases data.
func decodeEntryFile(data []byte) (codecName string, payload []byte, err error) {
	if len(data) < headerSize || string(data[:4]) != magic {
		return "", nil, errors.New("bad magic")
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	if version != FormatVersion {
		return "", nil, fmt.Errorf("format version %d, want %d", version, FormatVersion)
	}
	nameLen := binary.LittleEndian.Uint32(data[8:12])
	payloadLen := binary.LittleEndian.Uint64(data[12:20])
	crc := binary.LittleEndian.Uint32(data[20:24])
	if nameLen == 0 || nameLen > maxCodecName {
		return "", nil, fmt.Errorf("codec name length %d out of range", nameLen)
	}
	// Subtract rather than add: a payload length near 2^64 would wrap the
	// sum headerSize+nameLen+payloadLen back onto len(data).
	nameEnd := headerSize + uint64(nameLen)
	if have := uint64(len(data)); have < nameEnd || payloadLen != have-nameEnd {
		return "", nil, fmt.Errorf("truncated (have %d bytes, header promises %d-byte codec name and %d-byte payload)",
			len(data), nameLen, payloadLen)
	}
	codecName = string(data[headerSize:nameEnd])
	if _, ok := codecNamed(codecName); !ok {
		return "", nil, fmt.Errorf("unknown codec %q", codecName)
	}
	payload = data[nameEnd:]
	if crc32.Checksum(payload, crcTable) != crc {
		return "", nil, errors.New("payload checksum mismatch")
	}
	return codecName, payload, nil
}

// encodeEntryFile assembles the on-disk bytes for a payload.
func encodeEntryFile(codecName string, payload []byte) []byte {
	buf := make([]byte, headerSize+len(codecName)+len(payload))
	copy(buf[:4], magic)
	binary.LittleEndian.PutUint32(buf[4:8], FormatVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(codecName)))
	binary.LittleEndian.PutUint64(buf[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.Checksum(payload, crcTable))
	copy(buf[headerSize:], codecName)
	copy(buf[headerSize+len(codecName):], payload)
	return buf
}

// Get returns the decoded value for a key. A missing entry is a plain
// miss; an entry that fails validation or decoding is deleted and counted
// as corrupt, then reported as a miss — the caller recomputes.
//
// The index mutex is not held across file reads or decoding, so a slow
// read never stalls concurrent store operations. The entry can be evicted
// underneath the read; that surfaces as a read error and is handled as a
// plain miss (the entry is no longer indexed, so it is not miscounted as
// corruption).
func (s *Store) Get(k resultcache.Key) (any, bool, error) {
	name := fileName(k)
	path := s.path(name)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, errClosed
	}
	el, ok := s.entries[name]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false, nil
	}
	s.ll.MoveToFront(el)
	s.mu.Unlock()

	codecName, payload, err := readEntryFile(path)
	if err != nil {
		s.dropDamaged(name, el)
		return nil, false, nil
	}
	// Bump the access time so LRU order survives a restart; best-effort.
	now := time.Now()
	os.Chtimes(path, now, now)

	codec, _ := codecNamed(codecName)
	v, err := codec.Decode(payload)
	if err != nil {
		s.dropDamaged(name, el)
		return nil, false, nil
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return v, true, nil
}

// dropDamaged handles a read or decode failure for the entry that was
// indexed as el when the read started: if that same element is still
// indexed, the file really is damaged (deleted and counted as corrupt).
// If the key is gone — or indexed under a different element — a
// concurrent eviction (possibly followed by a fresh Put) raced the read,
// the failure was transient, and the current entry is left alone.
func (s *Store) dropDamaged(name string, el *list.Element) {
	s.mu.Lock()
	if cur, ok := s.entries[name]; ok && cur == el {
		s.dropLocked(el)
		s.droppedCorrupt++
	}
	s.misses++
	s.mu.Unlock()
}

// Put serialises and stores a value under a key, overwriting any previous
// entry, then enforces the byte bound. Values with no registered codec
// return ErrNoCodec.
//
// Encoding and the file write happen outside the index mutex, so a slow
// fsync never stalls concurrent Gets. Concurrent Puts of the same key are
// safe: each writes its own temp file and the renames are atomic, so the
// file is always one complete entry.
func (s *Store) Put(k resultcache.Key, v any) error {
	codec, ok := codecFor(v)
	if !ok {
		return fmt.Errorf("%w: %T", ErrNoCodec, v)
	}
	payload, err := codec.Encode(v)
	if err != nil {
		return err
	}
	data := encodeEntryFile(codec.Name, payload)
	name := fileName(k)

	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return errClosed
	}
	if err := s.writeFile(name, data); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Raced with Close: the file is on disk (harmless — a future Open
		// indexes it) but this store no longer tracks it.
		return errClosed
	}
	size := int64(len(data))
	if el, ok := s.entries[name]; ok {
		e := el.Value.(*entry)
		s.bytes += size - e.size
		e.size = size
		s.ll.MoveToFront(el)
	} else {
		e := &entry{name: name, size: size}
		s.entries[name] = s.ll.PushFront(e)
		s.bytes += size
	}
	s.writes++
	s.evictLocked()
	return nil
}

// writeFile writes an entry file crash-safely: temp file in the target
// shard, fsync, atomic rename.
func (s *Store) writeFile(name string, data []byte) error {
	shardDir := filepath.Join(s.dir, name[:2])
	if err := os.MkdirAll(shardDir, 0o777); err != nil {
		return fmt.Errorf("cachestore: creating shard %s: %w", shardDir, err)
	}
	f, err := os.CreateTemp(shardDir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("cachestore: temp file in %s: %w", shardDir, err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(shardDir, name+ext))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cachestore: writing %s: %w", name, err)
	}
	return nil
}

// dropLocked removes one entry from the index and disk; caller holds s.mu.
func (s *Store) dropLocked(el *list.Element) {
	e := el.Value.(*entry)
	os.Remove(s.path(e.name))
	s.ll.Remove(el)
	delete(s.entries, e.name)
	s.bytes -= e.size
}

// evictLocked deletes least recently used entries until the store is
// within its byte bound; caller holds s.mu.
func (s *Store) evictLocked() {
	for s.maxBytes > 0 && s.bytes > s.maxBytes && s.ll.Len() > 0 {
		oldest := s.ll.Back()
		size := oldest.Value.(*entry).size
		s.dropLocked(oldest)
		s.evictions++
		s.evictedBytes += size
	}
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes returns the store's total on-disk size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() resultcache.StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return resultcache.StoreStats{
		Entries:        s.ll.Len(),
		Bytes:          s.bytes,
		MaxBytes:       s.maxBytes,
		Hits:           s.hits,
		Misses:         s.misses,
		Writes:         s.writes,
		Evictions:      s.evictions,
		EvictedBytes:   s.evictedBytes,
		DroppedCorrupt: s.droppedCorrupt,
	}
}

// Close marks the store closed; writes are already durable, so there is
// nothing to flush. Closing twice is safe.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

var _ resultcache.Store = (*Store)(nil)
