package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
)

// randomWorkload builds an arbitrary-but-valid workload from a seeded
// source: every field of every step exercised, addresses kept within the
// declared space footprints so Validate passes.
func randomWorkload(rng *rand.Rand, tasks int) *Workload {
	b := NewBuilder("prop/workload")
	b.SetPasses(1 + rng.Intn(3))
	b.SetMergeBytes(uint64(rng.Intn(1 << 20)))
	var spaceBytes [NumSpaces]uint64
	for s := Space(0); s < NumSpaces; s++ {
		spaceBytes[s] = uint64(1024 + rng.Intn(1<<20))
		b.SetSpaceBytes(s, spaceBytes[s])
		b.SetLocalSpace(s, rng.Intn(2) == 0)
	}
	for t := 0; t < tasks; t++ {
		b.BeginTask(Engine(rng.Intn(int(NumEngines))))
		for s := 0; s < 1+rng.Intn(12); s++ {
			sp := Space(rng.Intn(int(NumSpaces)))
			size := uint32(1 + rng.Intn(64))
			addr := uint64(rng.Int63n(int64(spaceBytes[sp] - uint64(size))))
			b.Step(Step{
				Compute: uint16(rng.Intn(1 << 16)),
				Op:      Op(rng.Intn(3)),
				Space:   sp,
				Addr:    addr,
				Size:    size,
				Spatial: rng.Intn(2) == 0,
				Light:   rng.Intn(2) == 0,
			})
		}
		b.EndTask()
	}
	wl, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return wl
}

// TestCodecRoundTripProperty is the codec's property test: for many random
// workloads, encode → decode must reproduce the exact value (including a
// passing Validate, which DecodeWorkload runs internally).
func TestCodecRoundTripProperty(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(0xC0DEC))
	for trial := 0; trial < 50; trial++ {
		want := randomWorkload(rng, 1+rng.Intn(40))
		data := EncodeWorkload(want)
		got, err := DecodeWorkload(data)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: decoded workload invalid: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: round trip mismatch:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestCodecRejectsCorruption flips every byte of a small encoding in turn:
// each mutation must either decode to the identical workload (a byte the
// checksum catches cannot exist, so this only happens for... nothing: CRC32
// detects all single-byte flips) or fail with ErrCodec — never panic, never
// return a silently different workload.
func TestCodecRejectsCorruption(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	wl := randomWorkload(rng, 8)
	data := EncodeWorkload(wl)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xA5
		got, err := DecodeWorkload(mut)
		if err == nil {
			t.Fatalf("byte %d: single-byte corruption decoded successfully (%d tasks)", i, len(got.Tasks))
		}
		if !errors.Is(err, ErrCodec) {
			t.Fatalf("byte %d: error %v does not wrap ErrCodec", i, err)
		}
	}
	// Truncations at every length must also fail cleanly.
	for n := 0; n < len(data); n++ {
		if _, err := DecodeWorkload(data[:n]); !errors.Is(err, ErrCodec) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrCodec", n, err)
		}
	}
}

// TestCodecVersionSkew pins that a future version is refused rather than
// misparsed.
func TestCodecVersionSkew(t *testing.T) {
	t.Parallel()
	wl := randomWorkload(rand.New(rand.NewSource(2)), 2)
	data := EncodeWorkload(wl)
	// The version uvarint sits right after the 8-byte magic; CodecVersion 1
	// encodes as a single byte.
	if data[len(codecMagic)] != CodecVersion {
		t.Fatalf("encoding layout changed; update this test")
	}
	// A version bump alone (with a recomputed checksum) must be rejected.
	mut := append([]byte(nil), data...)
	mut[len(codecMagic)] = CodecVersion + 1
	mut = reseal(mut)
	if _, err := DecodeWorkload(mut); !errors.Is(err, ErrCodec) {
		t.Fatalf("future codec version accepted: %v", err)
	}
}

// reseal recomputes the trailing CRC over a mutated body, so the test
// exercises the version check rather than the checksum.
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	return append(append([]byte(nil), body...), crc[:]...)
}

func TestBuilderChunking(t *testing.T) {
	t.Parallel()
	b := NewBuilder("chunk")
	b.SetSpaceBytes(SpaceOcc, 1<<30)
	// Emit enough steps to cross several arena chunks, including one task
	// larger than a whole chunk.
	sizes := []int{1, builderChunkSteps - 1, builderChunkSteps + 7, 3, builderChunkSteps / 2}
	var wantSteps int
	for ti, n := range sizes {
		b.BeginTask(EngineFMIndex)
		for s := 0; s < n; s++ {
			b.Step(Step{Op: OpRead, Space: SpaceOcc, Addr: uint64(ti*1000 + s), Size: 32})
		}
		b.EndTask()
		wantSteps += n
	}
	wl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := wl.TotalSteps(); got != wantSteps {
		t.Fatalf("TotalSteps = %d, want %d", got, wantSteps)
	}
	for ti, n := range sizes {
		if len(wl.Tasks[ti].Steps) != n {
			t.Fatalf("task %d has %d steps, want %d", ti, len(wl.Tasks[ti].Steps), n)
		}
		for s, st := range wl.Tasks[ti].Steps {
			if st.Addr != uint64(ti*1000+s) {
				t.Fatalf("task %d step %d: addr %d, want %d", ti, s, st.Addr, ti*1000+s)
			}
		}
	}
	// Appending to one task's Steps must never bleed into the next task's
	// (the three-index arena subslices cap growth).
	s0 := wl.Tasks[0].Steps
	_ = append(s0, Step{Op: OpWrite, Space: SpaceOcc, Addr: 999, Size: 1})
	if wl.Tasks[1].Steps[0].Addr != 1000 {
		t.Fatal("arena subslice aliasing: appending to task 0 corrupted task 1")
	}
}

func TestBuilderMisuse(t *testing.T) {
	t.Parallel()
	b := NewBuilder("misuse")
	b.SetSpaceBytes(SpaceOcc, 64)
	b.BeginTask(EngineFMIndex)
	b.Step(Step{Op: OpRead, Space: SpaceOcc, Addr: 0, Size: 32})
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish with an open task succeeded")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nested BeginTask", func() { b.BeginTask(EngineKMC) })
	b.EndTask()
	mustPanic("Step outside task", func() { b.Step(Step{}) })
	mustPanic("double EndTask", func() { b.EndTask() })
}

func FuzzDecodeWorkload(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	f.Add(EncodeWorkload(randomWorkload(rng, 3)))
	f.Add(EncodeWorkload(randomWorkload(rng, 1)))
	f.Add([]byte(codecMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		wl, err := DecodeWorkload(data)
		if err != nil {
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("decode error %v does not wrap ErrCodec", err)
			}
			return
		}
		// Anything that decodes must be internally consistent and must
		// re-encode to a decodable value (not necessarily byte-identical:
		// a hand-crafted input may use non-canonical varint widths).
		if err := wl.Validate(); err != nil {
			t.Fatalf("decoded workload fails Validate: %v", err)
		}
		again, err := DecodeWorkload(EncodeWorkload(wl))
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if !reflect.DeepEqual(again, wl) {
			t.Fatal("re-encode round trip changed the workload")
		}
	})
}

func BenchmarkEncodeWorkload(b *testing.B) {
	wl := randomWorkload(rand.New(rand.NewSource(4)), 4096)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(EncodeWorkload(wl))
	}
	b.ReportMetric(float64(n)/float64(wl.TotalSteps()), "bytes/step")
}

func BenchmarkDecodeWorkload(b *testing.B) {
	data := EncodeWorkload(randomWorkload(rand.New(rand.NewSource(5)), 4096))
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeWorkload(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuilder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd := NewBuilder("bench")
		bd.SetSpaceBytes(SpaceOcc, 1<<30)
		for t := 0; t < 2048; t++ {
			bd.BeginTask(EngineFMIndex)
			for s := 0; s < 24; s++ {
				bd.Step(Step{Op: OpRead, Space: SpaceOcc, Addr: uint64(t + s), Size: 32})
			}
			bd.EndTask()
		}
		if _, err := bd.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendWorkloadAfterPrefix pins that appending after arbitrary bytes
// leaves them intact and appends exactly EncodeWorkload's bytes: the
// checksum covers the appended part only.
func TestAppendWorkloadAfterPrefix(t *testing.T) {
	t.Parallel()
	wl := randomWorkload(rand.New(rand.NewSource(9)), 12)
	prefix := []byte("envelope\x00\x01")
	got := AppendWorkload(append([]byte(nil), prefix...), wl)
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatal("AppendWorkload overwrote the prefix")
	}
	if !bytes.Equal(got[len(prefix):], EncodeWorkload(wl)) {
		t.Fatal("appended bytes differ from EncodeWorkload")
	}
	if _, err := DecodeWorkload(got[len(prefix):]); err != nil {
		t.Fatalf("appended part does not decode: %v", err)
	}
}
