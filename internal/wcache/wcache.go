// Package wcache is a content-addressed on-disk cache for workload traces.
//
// Workload construction is the expensive half of an experiment: building
// the synthetic genome, the FM/hash indexes, running the functional kernels
// and verifying their output dwarfs both the timing simulation it feeds and
// the cost of decoding a stored trace. The cache keys each entry by a
// SHA-256 over the caller's canonical identity string (application, species,
// every WorkloadConfig knob, codec and generator versions — see
// beacon.WorkloadSpec.cacheKey), so any knob change addresses a different
// entry and stale hits are impossible by construction: invalidation is
// renaming, not bookkeeping.
//
// Determinism contract: the cache must be invisible in results. A hit
// returns the exact trace a cold build would produce (the codec is
// lossless and the key pins every input), and any defect in a stored entry
// — truncation, bit rot, version skew — surfaces as ErrCorrupt, which
// callers treat as a miss and regenerate. The cache therefore only ever
// changes how fast an answer arrives, never the answer. Entries are
// written to a temp file and renamed into place, so concurrent writers and
// crashed processes cannot publish partial entries.
//
// The deliberate filesystem access below is exempted from the
// nodeterminism analyzer where it touches ambient process state; each
// exemption carries its reason inline.
package wcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"beacon/internal/trace"
)

// ErrCorrupt is wrapped by Get when a cache entry exists but cannot be
// decoded. Callers must treat it as a miss: the defective entry has already
// been removed, and rebuilding repopulates it.
var ErrCorrupt = errors.New("wcache: corrupt cache entry")

// entryMagic guards the envelope around the trace codec payload.
const entryMagic = "BWCENT01"

// entrySuffix names cache entry files.
const entrySuffix = ".bwl"

// tmpSeq disambiguates concurrent writers within one process.
var tmpSeq atomic.Int64

// Entry is one cached workload: the trace plus the functional-phase
// metadata the facade needs to reconstruct its wrapper without re-running
// verification.
type Entry struct {
	// Workload is the decoded trace.
	Workload *trace.Workload
	// App is the application identity recorded at Put time.
	App string
	// Verified records that the functional output passed verification when
	// the entry was built.
	Verified bool
}

// Stats counts cache traffic since Open.
type Stats struct {
	// Hits and Misses count Get outcomes; corrupt entries count as misses
	// and additionally as Corrupt.
	Hits, Misses, Corrupt int64
	// Puts counts successful writes.
	Puts int64
}

// Cache is a content-addressed workload store rooted at one directory.
// Safe for concurrent use by any number of processes: reads are immutable
// files, writes are temp+rename.
type Cache struct {
	dir string

	hits, misses, corrupt, puts atomic.Int64
}

// Open returns a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("wcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Key derives the content address for a canonical identity string.
func Key(identity string) string {
	sum := sha256.Sum256([]byte(identity))
	return hex.EncodeToString(sum[:])
}

// path maps a key to its entry file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+entrySuffix)
}

// Get loads the entry for key. A missing entry returns (nil, nil). A
// defective entry is removed and returns an error wrapping ErrCorrupt.
func (c *Cache) Get(key string) (*Entry, error) {
	data, err := os.ReadFile(c.path(key))
	if errors.Is(err, os.ErrNotExist) {
		c.misses.Add(1)
		return nil, nil
	}
	if err != nil {
		c.misses.Add(1)
		return nil, fmt.Errorf("wcache: %w", err)
	}
	e, err := decodeEntry(data)
	if err != nil {
		c.misses.Add(1)
		c.corrupt.Add(1)
		// Evict so the rebuilt entry replaces it; removal failure is
		// irrelevant (the rebuild's Put overwrites via rename anyway).
		_ = os.Remove(c.path(key))
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, key[:12], err)
	}
	c.hits.Add(1)
	return e, nil
}

// Put stores an entry under key, atomically replacing any previous one.
func (c *Cache) Put(key string, e *Entry) error {
	if e == nil || e.Workload == nil {
		return fmt.Errorf("wcache: nil entry")
	}
	data := encodeEntry(e)
	// Unique temp name per writer — pid across processes, sequence within
	// one — so concurrent builders of the same key never clobber each
	// other's half-written files; the rename publishes whichever finishes
	// last (all writers of a key encode identical bytes).
	//beaconlint:allow nodeterminism pid only uniquifies a temp filename, results never see it
	tmp := fmt.Sprintf("%s.tmp.%d.%d", c.path(key), os.Getpid(), tmpSeq.Add(1))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("wcache: %w", err)
	}
	if err := os.Rename(tmp, c.path(key)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wcache: %w", err)
	}
	c.puts.Add(1)
	return nil
}

// Stats returns traffic counters since Open.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
		Puts:    c.puts.Load(),
	}
}

// encodeEntry wraps the codec payload in the entry envelope:
// magic, app string, verified byte, then the (self-checksummed) trace.
func encodeEntry(e *Entry) []byte {
	buf := make([]byte, 0, len(entryMagic)+binary.MaxVarintLen64+len(e.App)+1)
	buf = append(buf, entryMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(e.App)))
	buf = append(buf, e.App...)
	if e.Verified {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return trace.AppendWorkload(buf, e.Workload)
}

// decodeEntry parses the envelope and the trace payload.
func decodeEntry(data []byte) (*Entry, error) {
	if len(data) < len(entryMagic) || string(data[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("bad entry magic")
	}
	rest := data[len(entryMagic):]
	appLen, n := binary.Uvarint(rest)
	if n <= 0 || appLen > uint64(len(rest)-n) {
		return nil, fmt.Errorf("bad app length")
	}
	rest = rest[n:]
	app := string(rest[:appLen])
	rest = rest[appLen:]
	if len(rest) < 1 {
		return nil, fmt.Errorf("missing verified byte")
	}
	verified := rest[0] == 1
	wl, err := trace.DecodeWorkload(rest[1:])
	if err != nil {
		return nil, err
	}
	return &Entry{Workload: wl, App: app, Verified: verified}, nil
}
