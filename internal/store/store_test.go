package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("{\n  \"x\": 1\n}\n")
	if _, ok := s.Get("run:abc"); ok {
		t.Fatal("Get before Put reported a hit")
	}
	if err := s.Put("run:abc", body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("run:abc")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v; want stored body", got, ok)
	}
	// A different key — even one differing only in endpoint — is a miss.
	if _, ok := s.Get("sweep:abc"); ok {
		t.Error("endpoint-qualified keys collided")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses / 1 put", st)
	}
}

func TestReopenSeesDurableEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("k", []byte("body")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("k")
	if !ok || string(got) != "body" {
		t.Fatalf("entry did not survive reopen: %q, %v", got, ok)
	}
}

func TestClosedStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("body")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Put("k2", []byte("x")); err != ErrClosed {
		t.Errorf("Put on closed store = %v, want ErrClosed", err)
	}
	if _, ok := s.Get("k"); ok {
		t.Error("Get on closed store reported a hit")
	}
	if err := s.PutRecord("j1", []byte("{}")); err != ErrClosed {
		t.Errorf("PutRecord on closed store = %v, want ErrClosed", err)
	}
}

// TestCorruptEntryIsAMiss: a truncated or bit-flipped object file must
// never be served; it reads as a miss, is counted corrupt, and is
// removed so a later Put heals it.
func TestCorruptEntryIsAMiss(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"bit flip in body", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-1] ^= 0x40
			return out
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func([]byte) []byte { return nil }},
		{"wrong magic", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[0] = 'X'
			return out
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("k", []byte("the body")); err != nil {
				t.Fatal(err)
			}
			path := s.objectPath("k")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("k"); ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			if s.Stats().Corrupt != 1 {
				t.Errorf("corrupt count = %d, want 1", s.Stats().Corrupt)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry not removed")
			}
			// The entry heals on the next Put.
			if err := s.Put("k", []byte("the body")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("k"); !ok || string(got) != "the body" {
				t.Errorf("healed Get = %q, %v", got, ok)
			}
		})
	}
}

// TestCrashMidWriteLeavesNoPartialEntry simulates a writer dying
// before its rename: the temp file it abandoned must not be visible as
// an entry, and a fresh writer completes normally alongside the
// stray file.
func TestCrashMidWriteLeavesNoPartialEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// What a crashed writer leaves behind: a temp file holding a
	// prefix of the frame, never renamed into place.
	frame := encodeObject([]byte("almost written"))
	if err := os.WriteFile(filepath.Join(dir, "tmp-crashed"), frame[:len(frame)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("victim"); ok {
		t.Fatal("partial write visible as an entry")
	}
	if err := s.Put("victim", []byte("complete")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("victim"); !ok || string(got) != "complete" {
		t.Fatalf("Get after recovery = %q, %v", got, ok)
	}
	if s.Stats().Corrupt != 0 {
		t.Errorf("stray temp file counted as corruption: %+v", s.Stats())
	}
}

// TestTwoInstancesShareOneDirectory drives two Store instances — the
// multi-process deployment shape — over one directory concurrently:
// readers poll keys while writers store them, every observed read is
// either a miss or the complete body, and both instances end up
// serving each other's writes. Run under -race.
func TestTwoInstancesShareOneDirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 64
	body := func(i int) []byte {
		return []byte(strings.Repeat(fmt.Sprintf("body-%03d|", i), 50))
	}
	var wg sync.WaitGroup
	// Writer on instance a, interleaved writer on instance b (even
	// keys land twice — idempotent by construction), reader on both.
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < keys; i++ {
			if err := a.Put(fmt.Sprintf("k%d", i), body(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < keys; i += 2 {
			if err := b.Put(fmt.Sprintf("k%d", i), body(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, inst := range []*Store{a, b} {
		inst := inst
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				// Poll until the writer lands this key; every successful
				// read must be the complete body.
				for {
					got, ok := inst.Get(fmt.Sprintf("k%d", i))
					if !ok {
						continue
					}
					if !bytes.Equal(got, body(i)) {
						t.Errorf("key k%d: read %d bytes, want %d", i, len(got), len(body(i)))
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	if a.Stats().Corrupt != 0 || b.Stats().Corrupt != 0 {
		t.Errorf("corruption under concurrent shared-dir use: a=%+v b=%+v", a.Stats(), b.Stats())
	}
}

func TestRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetRecord("missing"); err != nil || ok {
		t.Fatalf("GetRecord(missing) = ok=%v err=%v", ok, err)
	}
	if err := s.PutRecord("job-1", []byte(`{"state":"queued"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRecord("job-2", []byte(`{"state":"done"}`)); err != nil {
		t.Fatal(err)
	}
	body, ok, err := s.GetRecord("job-1")
	if err != nil || !ok || string(body) != `{"state":"queued"}` {
		t.Fatalf("GetRecord = %q, %v, %v", body, ok, err)
	}
	names, err := s.ListRecords()
	if err != nil || len(names) != 2 {
		t.Fatalf("ListRecords = %v, %v", names, err)
	}
	// Records survive reopen (the restart path reads them back).
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.GetRecord("job-2"); !ok {
		t.Error("record lost across reopen")
	}
	// Path traversal in a record name is rejected.
	if err := s.PutRecord("../evil", []byte("x")); err == nil {
		t.Error("PutRecord accepted a path-traversal name")
	}
	if err := s.PutRecord("", []byte("x")); err == nil {
		t.Error("PutRecord accepted an empty name")
	}
}

func TestKeyIsCanonicalAndEndpointQualified(t *testing.T) {
	type doc struct {
		A int `json:"a"`
	}
	k1, err := Key("run", doc{A: 1})
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := Key("run", doc{A: 1})
	k3, _ := Key("sweep", doc{A: 1})
	k4, _ := Key("run", doc{A: 2})
	if k1 != k2 {
		t.Error("identical documents produced different keys")
	}
	if k1 == k3 {
		t.Error("endpoint not part of the key")
	}
	if k1 == k4 {
		t.Error("different documents share a key")
	}
	if !strings.HasPrefix(k1, "run:") || len(k1) != len("run:")+64 {
		t.Errorf("key %q not in endpoint:sha256hex form", k1)
	}
}

func TestEncodeBodyMatchesServiceRendering(t *testing.T) {
	v := struct {
		Name string `json:"name"`
	}{Name: "x"}
	b, err := EncodeBody(v)
	if err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"name\": \"x\"\n}\n"
	if string(b) != want {
		t.Errorf("EncodeBody = %q, want %q", b, want)
	}
}

// EncodeBody returns an exact-size slice, so a cache that counts len
// counts every byte the body holds, and the bytes stay MarshalIndent's.
func TestEncodeBodyExactSize(t *testing.T) {
	rows := make([]map[string]float64, 500)
	for i := range rows {
		rows[i] = map[string]float64{"source": float64(i), "energy_j": float64(i) / 7}
	}
	b, err := EncodeBody(rows)
	if err != nil {
		t.Fatal(err)
	}
	if cap(b) != len(b) {
		t.Errorf("cap(body) = %d, len = %d: want no spare capacity", cap(b), len(b))
	}
	want, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, append(want, '\n')) {
		t.Error("body differs from MarshalIndent plus a newline")
	}
}
