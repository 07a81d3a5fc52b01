package cachestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"barrierpoint/internal/resultcache"
)

// testBlob is the artifact type the store tests persist. A fixed-length
// payload field keeps every entry the same size on disk, which makes the
// eviction arithmetic exact.
type testBlob struct {
	ID      int
	Payload string
}

func init() {
	RegisterGob[testBlob]("test.blob")
	RegisterGob[*testBlob]("test.blobPtr")
}

func blob(id int) testBlob {
	return testBlob{ID: id, Payload: strings.Repeat("x", 64)}
}

func key(id int) resultcache.Key {
	return resultcache.NewKey("test", fmt.Sprint(id))
}

func open(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, Options{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, id int) {
	t.Helper()
	if err := s.Put(key(id), blob(id)); err != nil {
		t.Fatalf("put %d: %v", id, err)
	}
}

func getBlob(t *testing.T, s *Store, id int) (testBlob, bool) {
	t.Helper()
	v, ok, err := s.Get(key(id))
	if err != nil {
		t.Fatalf("get %d: %v", id, err)
	}
	if !ok {
		return testBlob{}, false
	}
	return v.(testBlob), true
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	mustPut(t, s, 1)
	got, ok := getBlob(t, s, 1)
	if !ok || got != blob(1) {
		t.Fatalf("got %+v ok=%v, want %+v", got, ok, blob(1))
	}
	if _, ok := getBlob(t, s, 2); ok {
		t.Fatal("unwritten key should miss")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Writes != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes <= 0 {
		t.Errorf("bytes = %d, want > 0", st.Bytes)
	}
}

func TestPointerCodecRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	in := &testBlob{ID: 9, Payload: "ptr"}
	if err := s.Put(key(9), in); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get(key(9))
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	out, isPtr := v.(*testBlob)
	if !isPtr {
		t.Fatalf("decoded %T, want *testBlob", v)
	}
	if *out != *in {
		t.Errorf("round trip: %+v != %+v", *out, *in)
	}
}

func TestPutWithoutCodec(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	err := s.Put(key(1), make(chan int))
	if err == nil || !strings.Contains(err.Error(), "no codec") {
		t.Fatalf("err = %v, want ErrNoCodec", err)
	}
}

// TestWarmRestart is the store's reason to exist: everything written
// before a restart is served after one, with no recomputation.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i := 0; i < 10; i++ {
		mustPut(t, s, i)
	}
	wantBytes := s.Bytes()
	s.Close()

	s2 := open(t, dir, 0)
	if s2.Len() != 10 {
		t.Fatalf("reopened store has %d entries, want 10", s2.Len())
	}
	if s2.Bytes() != wantBytes {
		t.Errorf("reopened bytes = %d, want %d", s2.Bytes(), wantBytes)
	}
	for i := 0; i < 10; i++ {
		got, ok := getBlob(t, s2, i)
		if !ok || got != blob(i) {
			t.Errorf("entry %d after restart: got %+v ok=%v", i, got, ok)
		}
	}
	if st := s2.Stats(); st.DroppedCorrupt != 0 {
		t.Errorf("clean restart dropped %d files", st.DroppedCorrupt)
	}
}

// entryFiles returns the paths of all entry files under dir.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ext) {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestScanDropsCorruptAndTruncatedFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i := 0; i < 3; i++ {
		mustPut(t, s, i)
	}
	s.Close()

	paths := entryFiles(t, dir)
	if len(paths) != 3 {
		t.Fatalf("have %d entry files, want 3", len(paths))
	}
	// Corrupt one payload byte in the first file, truncate the second.
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(paths[0], data, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(paths[1], int64(headerSize+2)); err != nil {
		t.Fatal(err)
	}
	// Plant two leftover temp files: a stale one (a crash long ago, must
	// be collected) and a fresh one (possibly another process's write in
	// flight, must be left alone).
	stale := filepath.Join(filepath.Dir(paths[2]), tmpPrefix+"stale")
	if err := os.WriteFile(stale, []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tmpMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(filepath.Dir(paths[2]), tmpPrefix+"fresh")
	if err := os.WriteFile(fresh, []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	if s2.Len() != 1 {
		t.Errorf("reopened store has %d entries, want 1 survivor", s2.Len())
	}
	if st := s2.Stats(); st.DroppedCorrupt != 2 {
		t.Errorf("dropped %d files, want 2", st.DroppedCorrupt)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived the scan: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file (a live writer's) was deleted: %v", err)
	}
	if left := entryFiles(t, dir); len(left) != 1 {
		t.Errorf("%d entry files on disk after scan, want 1", len(left))
	}
}

func TestScanDropsStaleFormatVersion(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	mustPut(t, s, 1)
	s.Close()

	path := entryFiles(t, dir)[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[4:8], FormatVersion+1)
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	if s2.Len() != 0 {
		t.Errorf("stale-version file survived: %d entries", s2.Len())
	}
	if st := s2.Stats(); st.DroppedCorrupt != 1 {
		t.Errorf("dropped %d, want 1", st.DroppedCorrupt)
	}
}

// wrappedHeader is a 24-byte entry file whose payload length, added to
// the header and codec-name lengths, wraps around 2^64 back onto the file
// size.
func wrappedHeader() []byte {
	data := make([]byte, headerSize)
	copy(data[:4], magic)
	binary.LittleEndian.PutUint32(data[4:8], FormatVersion)
	binary.LittleEndian.PutUint32(data[8:12], 10)
	binary.LittleEndian.PutUint64(data[12:20], 1<<64-10)
	return data
}

// TestReadEntryFileRejectsWrappedLength: a header whose lengths only add
// up modulo 2^64 is a truncated file, not one whose codec name is read
// from past the end of the data.
func TestReadEntryFileRejectsWrappedLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wrapped"+ext)
	if err := os.WriteFile(path, wrappedHeader(), 0o666); err != nil {
		t.Fatal(err)
	}
	_, _, err := readEntryFile(path)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("readEntryFile = %v, want a truncated error", err)
	}
}

// FuzzReadEntryFile: the entry decoder must never panic, and every input
// it accepts must be exactly what encodeEntryFile writes for the decoded
// codec name and payload.
func FuzzReadEntryFile(f *testing.F) {
	valid := encodeEntryFile("test.blob", []byte("payload"))
	f.Add(valid)
	f.Add(encodeEntryFile("test.blobPtr", nil))
	f.Add(valid[:len(valid)-1])
	f.Add(wrappedHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		name, payload, err := decodeEntryFile(data)
		if err != nil {
			return
		}
		if again := encodeEntryFile(name, payload); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-encodes as %x", data, again)
		}
	})
}

// TestGetRecoversFromCorruptionUnderneath corrupts a file after the index
// was built: Get must drop it and report a miss, not an error.
func TestGetRecoversFromCorruptionUnderneath(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	mustPut(t, s, 1)
	path := entryFiles(t, dir)[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize] ^= 0xff // flip a codec-name byte
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := getBlob(t, s, 1); ok {
		t.Fatal("corrupted entry served as a hit")
	}
	if s.Len() != 0 {
		t.Errorf("corrupted entry still indexed")
	}
	if st := s.Stats(); st.DroppedCorrupt != 1 {
		t.Errorf("dropped = %d, want 1", st.DroppedCorrupt)
	}
	if _, ok := getBlob(t, s, 1); ok {
		t.Fatal("second Get after drop should miss")
	}
}

// entrySize measures one entry's on-disk size for eviction arithmetic.
// The probe ID is a nonzero single-byte int like the IDs the tests use:
// gob omits zero fields, so blob(0) would measure one byte short.
func entrySize(t *testing.T) int64 {
	t.Helper()
	s := open(t, t.TempDir(), 0)
	mustPut(t, s, 7)
	return s.Bytes()
}

// TestEvictionOrderIsLRUByAccess fills a bounded store, touches the
// oldest entry, and checks the next write evicts the least recently USED
// entry, not the least recently written.
func TestEvictionOrderIsLRUByAccess(t *testing.T) {
	size := entrySize(t)
	s := open(t, t.TempDir(), 3*size)
	mustPut(t, s, 1)
	mustPut(t, s, 2)
	mustPut(t, s, 3)
	if _, ok := getBlob(t, s, 1); !ok { // 1 becomes most recently used
		t.Fatal("entry 1 should be present")
	}
	mustPut(t, s, 4) // exceeds the bound: evicts 2, the LRU

	if s.Bytes() > 3*size {
		t.Errorf("store holds %d bytes, bound is %d", s.Bytes(), 3*size)
	}
	if _, ok := getBlob(t, s, 2); ok {
		t.Error("entry 2 should have been evicted")
	}
	for _, id := range []int{1, 3, 4} {
		if _, ok := getBlob(t, s, id); !ok {
			t.Errorf("entry %d should have survived", id)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.EvictedBytes != size {
		t.Errorf("evictions = %d (%d bytes), want 1 (%d bytes)", st.Evictions, st.EvictedBytes, size)
	}
}

// TestEvictionOrderSurvivesRestart reopens a store with a tighter bound:
// the open-time eviction pass must drop the entries least recently
// accessed before the restart (access times persist via mtime).
func TestEvictionOrderSurvivesRestart(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	s := open(t, dir, 0)
	// mtime granularity is finer than these sleeps on any platform we
	// run on; they order the access times unambiguously.
	mustPut(t, s, 1)
	time.Sleep(20 * time.Millisecond)
	mustPut(t, s, 2)
	time.Sleep(20 * time.Millisecond)
	mustPut(t, s, 3)
	time.Sleep(20 * time.Millisecond)
	if _, ok := getBlob(t, s, 1); !ok { // bump 1's access time
		t.Fatal("entry 1 missing")
	}
	s.Close()

	s2 := open(t, dir, 2*size)
	if s2.Len() != 2 {
		t.Fatalf("reopened store has %d entries, want 2", s2.Len())
	}
	if _, ok := getBlob(t, s2, 2); ok {
		t.Error("entry 2 was the LRU and should have been evicted at open")
	}
	for _, id := range []int{1, 3} {
		if _, ok := getBlob(t, s2, id); !ok {
			t.Errorf("entry %d should have survived the bounded reopen", id)
		}
	}
}

func TestOverwriteSameKey(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	mustPut(t, s, 1)
	bytes1 := s.Bytes()
	if err := s.Put(key(1), testBlob{ID: 1, Payload: "replaced"}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("overwrite duplicated the entry: %d", s.Len())
	}
	if s.Bytes() >= bytes1 {
		t.Errorf("bytes = %d not adjusted for the smaller payload (was %d)", s.Bytes(), bytes1)
	}
	got, ok := getBlob(t, s, 1)
	if !ok || got.Payload != "replaced" {
		t.Errorf("got %+v, want the replacement", got)
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	mustPut(t, s, 1)
	s.Close()
	if err := s.Put(key(2), blob(2)); err == nil {
		t.Error("Put after Close should fail")
	}
	if _, _, err := s.Get(key(1)); err == nil {
		t.Error("Get after Close should fail")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

// TestConcurrentLoadAndSpill hammers one store from many goroutines with
// overlapping keys (run under -race via make test-race / test-persist).
func TestConcurrentLoadAndSpill(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	const (
		goroutines = 8
		keys       = 16
		iters      = 30
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := (g + i) % keys
				if i%3 == 0 {
					if err := s.Put(key(id), blob(id)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				} else if got, ok := getBlob(t, s, id); ok && got != blob(id) {
					t.Errorf("got %+v for id %d", got, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() > keys {
		t.Errorf("%d entries for %d keys", s.Len(), keys)
	}
}
