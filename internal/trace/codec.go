package trace

// The workload codec: a compact, versioned, checksummed binary encoding of
// a Workload. It exists so the functional phase — synthetic genome
// construction, FM/hash index builds, kernel execution, verification — can
// be paid once and replayed from disk (internal/wcache): decoding a trace is
// orders of magnitude cheaper than regenerating it.
//
// Layout (all multi-byte integers are unsigned varints unless noted):
//
//	magic    8 bytes  "BEACONWL"
//	version  uvarint  CodecVersion
//	name     uvarint length + raw bytes
//	passes   uvarint
//	merge    uvarint  MergeBytes
//	nspaces  uvarint  number of SpaceBytes entries that follow
//	space    nspaces × uvarint
//	locals   uvarint  LocalSpaces bitmask (bit i = space i)
//	ntasks   uvarint
//	task     ntasks × { engine byte, nsteps uvarint, steps }
//	step     flags byte, [space byte], compute uvarint,
//	         addr zigzag-varint delta, size uvarint
//	crc      4 bytes little-endian, IEEE CRC-32 of everything above
//
// The step flags byte packs the op (2 bits), the Spatial and Light markers,
// and a same-space bit that elides the space byte when a step touches the
// same space as its predecessor. Addresses are delta-encoded against the
// previous address seen in the same space (zigzag, so backward jumps stay
// short), which compresses the streaming and pointer-chasing patterns the
// genomics kernels emit.
//
// Decoding is defensive: every length is bounds-checked against the
// remaining input before allocation, and any structural violation returns
// an error wrapping ErrCodec — a truncated or bit-flipped entry must fall
// back to regeneration, never panic (the package fuzz target enforces
// this).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
)

// CodecVersion is the current encoding version. It participates in cache
// keys: bumping it invalidates every on-disk workload entry.
const CodecVersion = 1

// codecMagic identifies a workload encoding.
const codecMagic = "BEACONWL"

// ErrCodec is wrapped by every decoding failure, so callers can
// errors.Is-match corruption without string inspection.
var ErrCodec = errors.New("trace: invalid workload encoding")

// step flag bits.
const (
	flagOpMask    = 0b0000_0011
	flagSpatial   = 0b0000_0100
	flagLight     = 0b0000_1000
	flagSameSpace = 0b0001_0000
)

// EncodeWorkload serializes w into the versioned binary format.
func EncodeWorkload(w *Workload) []byte { return AppendWorkload(nil, w) }

// AppendWorkload appends w's encoding to dst and returns the extended
// slice. The trailing checksum covers the appended bytes only, so the
// appended part equals EncodeWorkload(w) whatever dst holds.
func AppendWorkload(dst []byte, w *Workload) []byte {
	start := len(dst)
	// Steps dominate; reserve ~6 bytes per step to avoid regrowth churn.
	buf := slices.Grow(dst, 64+len(w.Name)+8*len(w.Tasks)+6*w.TotalSteps())
	buf = append(buf, codecMagic...)
	buf = binary.AppendUvarint(buf, CodecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(w.Name)))
	buf = append(buf, w.Name...)
	buf = binary.AppendUvarint(buf, uint64(w.Passes))
	buf = binary.AppendUvarint(buf, w.MergeBytes)
	buf = binary.AppendUvarint(buf, uint64(NumSpaces))
	for _, b := range w.SpaceBytes {
		buf = binary.AppendUvarint(buf, b)
	}
	var locals uint64
	for i, l := range w.LocalSpaces {
		if l {
			locals |= 1 << i
		}
	}
	buf = binary.AppendUvarint(buf, locals)
	buf = binary.AppendUvarint(buf, uint64(len(w.Tasks)))
	var prevAddr [NumSpaces]uint64
	prevSpace := NumSpaces // sentinel: first step always writes its space
	for ti := range w.Tasks {
		t := &w.Tasks[ti]
		buf = append(buf, byte(t.Engine))
		buf = binary.AppendUvarint(buf, uint64(len(t.Steps)))
		for _, st := range t.Steps {
			flags := byte(st.Op) & flagOpMask
			if st.Spatial {
				flags |= flagSpatial
			}
			if st.Light {
				flags |= flagLight
			}
			if st.Space == prevSpace {
				flags |= flagSameSpace
			}
			buf = append(buf, flags)
			if st.Space != prevSpace {
				buf = append(buf, byte(st.Space))
				prevSpace = st.Space
			}
			buf = binary.AppendUvarint(buf, uint64(st.Compute))
			delta := int64(st.Addr - prevAddr[st.Space])
			buf = binary.AppendVarint(buf, delta)
			prevAddr[st.Space] = st.Addr
			buf = binary.AppendUvarint(buf, uint64(st.Size))
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf[start:]))
	return append(buf, crc[:]...)
}

// codecReader is a bounds-checked cursor over an encoded workload.
type codecReader struct {
	data []byte
	pos  int
}

func (r *codecReader) remaining() int { return len(r.data) - r.pos }

func (r *codecReader) byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrCodec, r.pos)
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *codecReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("%w: truncated at byte %d (want %d more)", ErrCodec, r.pos, n)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *codecReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at byte %d", ErrCodec, r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *codecReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at byte %d", ErrCodec, r.pos)
	}
	r.pos += n
	return v, nil
}

// minStepBytes is the smallest possible encoded step (flags + compute +
// addr delta + size, same-space): used to reject absurd step counts before
// allocating.
const minStepBytes = 4

// DecodeWorkload parses an encoding produced by EncodeWorkload. Any
// corruption — bad magic, version skew, truncation, checksum mismatch,
// structural nonsense — returns an error wrapping ErrCodec.
func DecodeWorkload(data []byte) (*Workload, error) {
	if len(data) < len(codecMagic)+4 {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrCodec, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if want, got := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); want != got {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCodec, want, got)
	}
	r := &codecReader{data: body}
	magic, err := r.bytes(len(codecMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCodec, magic)
	}
	version, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if version != CodecVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCodec, version, CodecVersion)
	}
	nameLen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nameLen > uint64(r.remaining()) {
		return nil, fmt.Errorf("%w: name length %d exceeds input", ErrCodec, nameLen)
	}
	name, err := r.bytes(int(nameLen))
	if err != nil {
		return nil, err
	}
	passes, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	merge, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nspaces, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nspaces != uint64(NumSpaces) {
		return nil, fmt.Errorf("%w: %d spaces, this build knows %d", ErrCodec, nspaces, NumSpaces)
	}
	b := NewBuilder(string(name))
	b.SetPasses(int(passes))
	b.SetMergeBytes(merge)
	for s := Space(0); s < NumSpaces; s++ {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b.SetSpaceBytes(s, v)
	}
	locals, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if locals>>NumSpaces != 0 {
		return nil, fmt.Errorf("%w: local-space bitmask %#x names undefined spaces", ErrCodec, locals)
	}
	for locals != 0 {
		s := Space(bits.TrailingZeros64(locals))
		b.SetLocalSpace(s, true)
		locals &= locals - 1
	}
	ntasks, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each task costs at least 2 bytes (engine + step count).
	if ntasks > uint64(r.remaining())/2 {
		return nil, fmt.Errorf("%w: task count %d exceeds input", ErrCodec, ntasks)
	}
	var prevAddr [NumSpaces]uint64
	prevSpace := NumSpaces
	for ti := uint64(0); ti < ntasks; ti++ {
		engine, err := r.byte()
		if err != nil {
			return nil, err
		}
		if Engine(engine) >= NumEngines {
			return nil, fmt.Errorf("%w: task %d: engine %d out of range", ErrCodec, ti, engine)
		}
		nsteps, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nsteps > uint64(r.remaining())/minStepBytes {
			return nil, fmt.Errorf("%w: task %d: step count %d exceeds input", ErrCodec, ti, nsteps)
		}
		b.BeginTask(Engine(engine))
		for si := uint64(0); si < nsteps; si++ {
			flags, err := r.byte()
			if err != nil {
				return nil, err
			}
			if Op(flags&flagOpMask) > OpAtomicRMW {
				return nil, fmt.Errorf("%w: task %d step %d: op %d out of range", ErrCodec, ti, si, flags&flagOpMask)
			}
			space := prevSpace
			if flags&flagSameSpace == 0 {
				sb, err := r.byte()
				if err != nil {
					return nil, err
				}
				space = Space(sb)
				prevSpace = space
			}
			if space >= NumSpaces {
				return nil, fmt.Errorf("%w: task %d step %d: space %d out of range", ErrCodec, ti, si, space)
			}
			compute, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if compute > 0xFFFF {
				return nil, fmt.Errorf("%w: task %d step %d: compute %d overflows uint16", ErrCodec, ti, si, compute)
			}
			delta, err := r.varint()
			if err != nil {
				return nil, err
			}
			addr := prevAddr[space] + uint64(delta)
			prevAddr[space] = addr
			size, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if size > 0xFFFFFFFF {
				return nil, fmt.Errorf("%w: task %d step %d: size %d overflows uint32", ErrCodec, ti, si, size)
			}
			b.Step(Step{
				Compute: uint16(compute),
				Op:      Op(flags & flagOpMask),
				Space:   space,
				Addr:    addr,
				Size:    uint32(size),
				Spatial: flags&flagSpatial != 0,
				Light:   flags&flagLight != 0,
			})
		}
		b.EndTask()
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, r.remaining())
	}
	wl, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("%w: decoded workload invalid: %v", ErrCodec, err)
	}
	return wl, nil
}
