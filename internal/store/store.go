// Package store is the durable, disk-backed result store behind the
// serving layer's in-memory LRU and the async job subsystem: a
// content-addressed map from canonical request keys (the same
// endpoint-qualified SHA-256 hashes the service cache uses) to fully
// rendered response bodies, plus a small atomic-rename record area for
// job state.
//
// # Durability and sharing
//
// Every entry is written to a temporary file in the target directory,
// fsynced, and renamed into place, so a reader — in this process or
// any other sharing the directory — observes either the complete entry
// or nothing; a crash mid-write leaves only a stray temp file, never a
// partial entry under the real name. Entries carry a magic header and
// the SHA-256 of their body; a read that finds a truncated or
// bit-flipped file counts it as corrupt, removes it, and reports a
// miss, so corruption degrades to recomputation rather than to serving
// wrong bytes. Multiple Store instances (multiple processes) may share
// one directory: writes are idempotent — the key is a hash of the
// request, so two writers racing on one key write identical bodies —
// and the rename makes each visible atomically.
//
// # Layout
//
//	<dir>/objects/<aa>/<sha256-of-key>   checksummed bodies
//	<dir>/jobs/<name>.json               job records (atomic rename)
//	<dir>/tmp-*                          in-flight writes
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by mutating operations on a closed store.
var ErrClosed = errors.New("store: closed")

// magic prefixes every object file; a file without it is corrupt.
var magic = []byte("WSNSTOR1")

// Store is a content-addressed result store rooted at one directory.
// All methods are safe for concurrent use, within and across
// processes.
type Store struct {
	dir    string
	closed atomic.Bool

	// maxBytes, when positive, caps the object area's on-disk size;
	// bytes is this process's running estimate of it (rescanned from
	// disk inside every sweep, so cross-process writers only delay a
	// sweep, never break the cap). sweepMu serializes sweeps.
	maxBytes atomic.Int64
	bytes    atomic.Int64
	sweepMu  sync.Mutex

	hits         atomic.Uint64
	misses       atomic.Uint64
	puts         atomic.Uint64
	corrupt      atomic.Uint64
	evictions    atomic.Uint64
	evictedBytes atomic.Uint64
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Puts    uint64 `json:"puts"`
	Corrupt uint64 `json:"corrupt"`
	// Bytes is the tracked size of the object area; MaxBytes is the
	// configured cap (0: unbounded).
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// Evictions counts objects removed by the size-cap sweep;
	// EvictedBytes their cumulative size.
	Evictions    uint64 `json:"evictions"`
	EvictedBytes uint64 `json:"evicted_bytes"`
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"objects", "jobs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetMaxBytes bounds the object area's on-disk footprint: whenever the
// tracked size exceeds max, a sweep evicts objects oldest-mtime-first
// until the area fits again. Objects are pure caches of deterministic
// computations, so eviction only ever costs recomputation. Job records
// (the jobs/ area) are exempt — losing one would orphan a job, not
// just a result. max <= 0 removes the cap. The call rescans the object
// area to seed the size estimate and sweeps immediately if the cap is
// already exceeded.
func (s *Store) SetMaxBytes(max int64) error {
	s.maxBytes.Store(max)
	size, err := s.scanObjects(nil)
	if err != nil {
		return err
	}
	s.bytes.Store(size)
	return s.sweep()
}

// object is one entry of the object area, as seen by a scan.
type object struct {
	path  string
	size  int64
	mtime time.Time
}

// scanObjects walks the object area summing sizes; when collect is
// non-nil every entry is also appended to it.
func (s *Store) scanObjects(collect *[]object) (int64, error) {
	var total int64
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			// A file evicted or corrupted mid-walk is simply absent.
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		total += info.Size()
		if collect != nil {
			*collect = append(*collect, object{path: path, size: info.Size(), mtime: info.ModTime()})
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return total, nil
}

// sweep enforces the size cap: rescan the object area (healing the
// estimate against writers in other processes), then remove objects
// oldest mtime first — the entries least recently written, and under
// the write-through usage pattern the least likely to be asked for
// again — until the area fits the cap.
func (s *Store) sweep() error {
	max := s.maxBytes.Load()
	if max <= 0 || s.bytes.Load() <= max {
		return nil
	}
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	var objs []object
	total, err := s.scanObjects(&objs)
	if err != nil {
		return err
	}
	if total > max {
		sort.Slice(objs, func(i, j int) bool {
			if !objs[i].mtime.Equal(objs[j].mtime) {
				return objs[i].mtime.Before(objs[j].mtime)
			}
			return objs[i].path < objs[j].path
		})
		for _, o := range objs {
			if total <= max {
				break
			}
			if err := os.Remove(o.path); err != nil {
				if errors.Is(err, os.ErrNotExist) {
					total -= o.size // another process got there first
					continue
				}
				s.bytes.Store(total)
				return fmt.Errorf("store: evict %s: %w", o.path, err)
			}
			total -= o.size
			s.evictions.Add(1)
			s.evictedBytes.Add(uint64(o.size))
		}
	}
	s.bytes.Store(total)
	return nil
}

// Close marks the store closed: subsequent Puts fail with ErrClosed
// and Gets report misses. Writes are already durable at Put time
// (fsync before rename), so Close has nothing to flush; it exists so a
// draining server can fence late writers deterministically.
func (s *Store) Close() error {
	s.closed.Store(true)
	return nil
}

// objectPath shards objects by the first byte of the key hash so one
// directory never accumulates every entry.
func (s *Store) objectPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, "objects", name[:2], name)
}

// Get returns the body stored under key. A missing, truncated or
// checksum-mismatched entry is a miss; the latter two are additionally
// counted as corrupt and removed so the next Put can heal the entry.
func (s *Store) Get(key string) ([]byte, bool) {
	if s.closed.Load() {
		s.misses.Add(1)
		return nil, false
	}
	path := s.objectPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	body, ok := decodeObject(raw)
	if !ok {
		s.corrupt.Add(1)
		s.misses.Add(1)
		if os.Remove(path) == nil {
			s.bytes.Add(-int64(len(raw)))
		}
		return nil, false
	}
	s.hits.Add(1)
	return body, true
}

// Put stores body under key: write to a temp file, fsync, rename into
// place. Concurrent Puts of the same key are safe — both write the
// same content-addressed bytes and the last rename wins bit-identically.
func (s *Store) Put(key string, body []byte) error {
	if s.closed.Load() {
		return ErrClosed
	}
	path := s.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	data := encodeObject(body)
	if err := writeAtomic(s.dir, path, data); err != nil {
		return err
	}
	s.puts.Add(1)
	s.bytes.Add(int64(len(data)))
	// The write is durable; a failing sweep degrades the cap, not the
	// Put.
	s.sweep()
	return nil
}

// Delete removes the object stored under key, if any. A missing entry
// is not an error — Delete is the cleanup of transient objects (point
// checkpoints) whose absence is the goal.
func (s *Store) Delete(key string) error {
	if s.closed.Load() {
		return ErrClosed
	}
	path := s.objectPath(key)
	var size int64
	if info, err := os.Stat(path); err == nil {
		size = info.Size()
	}
	err := os.Remove(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	s.bytes.Add(-size)
	return nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		Corrupt:      s.corrupt.Load(),
		Bytes:        s.bytes.Load(),
		MaxBytes:     s.maxBytes.Load(),
		Evictions:    s.evictions.Load(),
		EvictedBytes: s.evictedBytes.Load(),
	}
}

// encodeObject frames a body for disk: magic, body SHA-256, body.
func encodeObject(body []byte) []byte {
	sum := sha256.Sum256(body)
	out := make([]byte, 0, len(magic)+len(sum)+len(body))
	out = append(out, magic...)
	out = append(out, sum[:]...)
	return append(out, body...)
}

// decodeObject reverses encodeObject, verifying frame and checksum.
func decodeObject(raw []byte) ([]byte, bool) {
	if len(raw) < len(magic)+sha256.Size || !bytes.HasPrefix(raw, magic) {
		return nil, false
	}
	want := raw[len(magic) : len(magic)+sha256.Size]
	body := raw[len(magic)+sha256.Size:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(want, sum[:]) {
		return nil, false
	}
	return body, true
}

// writeAtomic writes data to path via a fsynced temp file in tmpDir
// plus rename, then fsyncs the parent directory so the rename itself
// is durable.
func writeAtomic(tmpDir, path string, data []byte) error {
	f, err := os.CreateTemp(tmpDir, "tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	serr := f.Sync()
	cerr := f.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", path, errors.Join(werr, serr, cerr))
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// recordPath maps a record name to its file; names are restricted to
// hex/dash/underscore so a name can never escape the jobs directory.
func (s *Store) recordPath(name string) (string, error) {
	for _, r := range name {
		if (r < '0' || r > '9') && (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') && r != '-' && r != '_' {
			return "", fmt.Errorf("store: invalid record name %q", name)
		}
	}
	if name == "" {
		return "", errors.New("store: empty record name")
	}
	return filepath.Join(s.dir, "jobs", name+".json"), nil
}

// PutRecord durably stores a small named record (job state) via the
// same write-then-rename protocol as objects.
func (s *Store) PutRecord(name string, body []byte) error {
	if s.closed.Load() {
		return ErrClosed
	}
	path, err := s.recordPath(name)
	if err != nil {
		return err
	}
	return writeAtomic(s.dir, path, body)
}

// GetRecord returns the named record; ok is false when it does not
// exist.
func (s *Store) GetRecord(name string) ([]byte, bool, error) {
	path, err := s.recordPath(name)
	if err != nil {
		return nil, false, err
	}
	body, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	return body, true, nil
}

// ListRecords returns the names of all stored records.
func (s *Store) ListRecords() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), ".json"); ok && !e.IsDir() {
			names = append(names, n)
		}
	}
	return names, nil
}

// Key is the canonical cache/store identity of a request: the endpoint
// name (different endpoints answer different shapes for one document)
// plus the SHA-256 of the document's canonical JSON encoding. The
// serving layer, the job subsystem and the CLIs all derive their keys
// here, which is what lets one store directory share results between
// them.
func Key(endpoint string, doc any) (string, error) {
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return endpoint + ":" + hex.EncodeToString(sum[:]), nil
}

// EncodeBody renders a response body exactly as the HTTP service does
// — indented JSON plus a trailing newline — so bodies produced by the
// job subsystem and the CLIs are byte-identical to the synchronous
// serving path. The body is an exact-size slice: caches that bound
// their bytes by len hold no unaccounted spare capacity (MarshalIndent's
// buffer runs ~12% past its length).
func EncodeBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	body := make([]byte, len(b)+1)
	copy(body, b)
	body[len(b)] = '\n'
	return body, nil
}
