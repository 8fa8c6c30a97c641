package wcache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"beacon/internal/trace"
)

func testWorkload(t testing.TB, name string, tasks int) *trace.Workload {
	t.Helper()
	b := trace.NewBuilder(name)
	b.SetSpaceBytes(trace.SpaceOcc, 1<<20)
	b.SetSpaceBytes(trace.SpaceReads, 1<<16)
	b.SetLocalSpace(trace.SpaceReads, true)
	b.SetPasses(2)
	b.SetMergeBytes(4096)
	for ti := 0; ti < tasks; ti++ {
		b.BeginTask(trace.EngineFMIndex)
		b.Step(trace.Step{Op: trace.OpRead, Space: trace.SpaceReads, Addr: uint64(ti), Size: 25, Spatial: true, Light: true})
		b.Step(trace.Step{Op: trace.OpRead, Space: trace.SpaceOcc, Addr: uint64(ti * 32), Size: 32})
		b.EndTask()
	}
	wl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestCacheRoundTrip(t *testing.T) {
	t.Parallel()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("app=test|species=Pt|v=1")
	if e, err := c.Get(key); err != nil || e != nil {
		t.Fatalf("empty cache Get = %v, %v; want nil, nil", e, err)
	}
	want := &Entry{Workload: testWorkload(t, "fm-seeding/Pt", 16), App: "fm-seeding", Verified: true}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != want.App || got.Verified != want.Verified {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Workload, want.Workload) {
		t.Fatal("workload round trip mismatch")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDistinctKeys(t *testing.T) {
	t.Parallel()
	if Key("a") == Key("b") {
		t.Fatal("distinct identities share a key")
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"one", "two"} {
		if err := c.Put(Key(name), &Entry{Workload: testWorkload(t, name, i+1), App: name}); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range []string{"one", "two"} {
		e, err := c.Get(Key(name))
		if err != nil {
			t.Fatal(err)
		}
		if e.Workload.Name != name || len(e.Workload.Tasks) != i+1 {
			t.Fatalf("key %q resolved to workload %q with %d tasks", name, e.Workload.Name, len(e.Workload.Tasks))
		}
	}
}

// TestCacheCorruptFallback corrupts a stored entry every way that matters:
// the envelope, the payload, truncation, and junk. Get must report
// ErrCorrupt (not panic, not succeed) and evict the entry.
func TestCacheCorruptFallback(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("corrupt-me")
	entry := &Entry{Workload: testWorkload(t, "victim", 4), App: "fm-seeding", Verified: true}
	if err := c.Put(key, entry); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+entrySuffix)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name string
		data []byte
	}{
		{"flip envelope byte", flip(orig, 2)},
		{"flip payload byte", flip(orig, len(orig)-10)},
		{"truncate", orig[:len(orig)/2]},
		{"junk", []byte("not a cache entry at all")},
		{"empty", nil},
	}
	for _, m := range mutations {
		name, mut := m.name, m.data
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := c.Get(key)
		if e != nil || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Get = %v, %v; want nil, ErrCorrupt", name, e, err)
		}
		if _, statErr := os.Stat(path); !errors.Is(statErr, os.ErrNotExist) {
			t.Fatalf("%s: corrupt entry not evicted", name)
		}
		// Regeneration must repopulate cleanly.
		if err := c.Put(key, entry); err != nil {
			t.Fatalf("%s: re-Put: %v", name, err)
		}
		if _, err := c.Get(key); err != nil {
			t.Fatalf("%s: Get after re-Put: %v", name, err)
		}
	}
	if st := c.Stats(); st.Corrupt != int64(len(mutations)) {
		t.Fatalf("corrupt count = %d, want %d", st.Corrupt, len(mutations))
	}
}

// TestCacheConcurrent hammers one cache with racing writers and readers of
// a small key set; run under -race by the scoped race job.
func TestCacheConcurrent(t *testing.T) {
	t.Parallel()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{Key("k0"), Key("k1"), Key("k2")}
	entries := make([]*Entry, len(keys))
	for i := range keys {
		entries[i] = &Entry{Workload: testWorkload(t, "shared", 8), App: "kmer-counting"}
	}
	//beaconlint:allow goroutinescope raw goroutines deliberately race the cache under -race; no simulation results involved
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		//beaconlint:allow goroutinescope raw goroutines deliberately race the cache under -race; no simulation results involved
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(keys)
				if err := c.Put(keys[k], entries[k]); err != nil {
					t.Errorf("Put: %v", err)
				}
				e, err := c.Get(keys[k])
				if err != nil || e == nil {
					t.Errorf("Get: %v, %v", e, err)
					continue
				}
				if !reflect.DeepEqual(e.Workload, entries[k].Workload) {
					t.Error("concurrent Get returned a torn workload")
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	t.Parallel()
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func flip(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x5A
	return out
}

// TestEncodeEntryLayout pins the entry bytes: the envelope (magic, app
// length and string, verified byte) followed by exactly EncodeWorkload's
// bytes, so appending the trace in place writes what a separate encode and
// copy wrote.
func TestEncodeEntryLayout(t *testing.T) {
	t.Parallel()
	for _, verified := range []bool{false, true} {
		e := &Entry{Workload: testWorkload(t, "kmer-counting/Hs", 9), App: "kmer-counting", Verified: verified}
		want := append([]byte(entryMagic), byte(len(e.App)))
		want = append(want, e.App...)
		if verified {
			want = append(want, 1)
		} else {
			want = append(want, 0)
		}
		want = append(want, trace.EncodeWorkload(e.Workload)...)
		if got := encodeEntry(e); !bytes.Equal(got, want) {
			t.Errorf("verified=%v: entry bytes differ from envelope + EncodeWorkload (%d vs %d bytes)", verified, len(got), len(want))
		}
	}
}
