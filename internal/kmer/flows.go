package kmer

import (
	"fmt"

	"beacon/internal/genome"
	"beacon/internal/trace"
)

// FlowResult is the output of a counting flow: functional counts plus the
// memory-trace workload for the timing phase.
type FlowResult struct {
	// Counts is the reported k-mer table (see package comment for the
	// approximation semantics; exact for every truly repeated k-mer).
	Counts Counts
	// Workload drives the timing simulators.
	Workload *trace.Workload
	// FilterBytes and TableBytes are the footprints of the Bloom filter and
	// the exact counter table.
	FilterBytes, TableBytes uint64
}

// kmerHash mixes a canonical k-mer for counter-table placement.
func kmerHash(m genome.Kmer) uint64 {
	z := uint64(m) * 0xD6E8FEB86659FD93
	z ^= z >> 32
	z *= 0xD6E8FEB86659FD93
	z ^= z >> 32
	return z
}

// kmerStream holds every read's canonical k-mers back to back, computed
// once and read by both counting passes and the trace emission: read ri's
// are kmers[off[ri]:off[ri+1]].
type kmerStream struct {
	kmers []genome.Kmer
	off   []int
}

func newKmerStream(reads []genome.Read, k int, instances uint64) *kmerStream {
	s := &kmerStream{kmers: make([]genome.Kmer, 0, instances), off: make([]int, 1, len(reads)+1)}
	for i := range reads {
		s.kmers = appendCanonical(s.kmers, reads[i].Seq, k)
		s.off = append(s.off, len(s.kmers))
	}
	return s
}

// read returns read ri's canonical k-mers in position order.
func (s *kmerStream) read(ri int) []genome.Kmer { return s.kmers[s.off[ri]:s.off[ri+1]] }

// appendCanonical appends the canonical k-mer at each position of seq to
// dst in one rolling pass: the forward k-mer shifts each base in at the
// low end, its reverse complement shifts the complement in at the high
// end, and the smaller of the two is canonical (genome.Kmer.Canonical).
func appendCanonical(dst []genome.Kmer, seq *genome.Sequence, k int) []genome.Kmer {
	mask := ^genome.Kmer(0)
	if k < 32 {
		mask = genome.Kmer(1)<<(2*k) - 1
	}
	top := uint(2 * (k - 1))
	var fwd, rev genome.Kmer
	for i := 0; i < seq.Len(); i++ {
		b := genome.Kmer(seq.At(i))
		fwd = (fwd<<2 | b) & mask
		rev = rev>>2 | (3-b)<<top
		if i >= k-1 {
			dst = append(dst, min(fwd, rev))
		}
	}
	return dst
}

// filterGeometry sizes the Bloom filter for the input.
func filterGeometry(reads []genome.Read, cfg Config) (instances uint64, counters uint64) {
	for i := range reads {
		if n := reads[i].Seq.Len() - cfg.K + 1; n > 0 {
			instances += uint64(n)
		}
	}
	counters = instances * uint64(cfg.CountersPerKmer)
	if counters == 0 {
		counters = 1
	}
	return instances, counters
}

// tableCapacity rounds the distinct-entry count up to a power of two with
// 50% headroom, mimicking an open-addressed table.
func tableCapacity(entries int) uint64 {
	cap := uint64(1)
	for cap < uint64(entries)*2 {
		cap *= 2
	}
	return cap
}

// CountMultiPass runs the NEST-style multi-pass flow with `parts` local
// filters (one per accelerator DIMM in NEST).
//
// Pass 1 streams every read and builds the local filters; the filters are
// then merged into a global filter and redistributed (MergeBytes); pass 2
// streams every read again, counting k-mers whose merged-filter estimate is
// at least 2. Both passes appear explicitly in the emitted task list, so the
// timing models see the doubled input traffic that BEACON-S's single-pass
// optimization removes.
func CountMultiPass(reads []genome.Read, cfg Config, parts int, name string) (*FlowResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if parts <= 0 {
		return nil, fmt.Errorf("kmer: parts must be positive, got %d", parts)
	}
	if len(reads) == 0 {
		return nil, fmt.Errorf("kmer: no reads")
	}
	instances, counters := filterGeometry(reads, cfg)
	stream := newKmerStream(reads, cfg.K, instances)
	global, err := mergedFilter(stream, counters, cfg.Hashes, parts)
	if err != nil {
		return nil, err
	}
	// Pass 2 (functional): exact counting of filter-passing k-mers. Each
	// occurrence's decision is kept for the trace's second pass.
	counted := make([]bool, len(stream.kmers))
	table := Counts{}
	for i, m := range stream.kmers {
		if global.Estimate(uint64(m)) >= 2 {
			counted[i] = true
			table[m]++
		}
	}
	res := &FlowResult{Counts: table, FilterBytes: global.Bytes()}
	res.TableBytes = tableCapacity(len(table)) * uint64(cfg.CounterEntryBytes)
	wl, err := emitCountingTrace(reads, stream, cfg, name, global, counted, res, true)
	if err != nil {
		return nil, err
	}
	res.Workload = wl
	return res, nil
}

// mergedFilter runs pass 1 of the multi-pass flow and returns the global
// filter. Reads are partitioned round-robin: part p's local filter counts
// reads p, p+parts, ..., and the global filter is the saturating sum of
// the local ones. The parts are built one after another in one reused
// buffer, each merged into the global filter as it completes; that is the
// same sequence of Adds and Merges as with every local filter alive at
// once, so the global filter's bytes are the same.
func mergedFilter(stream *kmerStream, counters uint64, hashes, parts int) (*CountingBloom, error) {
	global, err := NewCountingBloom(counters, hashes)
	if err != nil {
		return nil, err
	}
	nReads := len(stream.off) - 1
	addPart := func(f *CountingBloom, p int) {
		for ri := p; ri < nReads; ri += parts {
			for _, m := range stream.read(ri) {
				f.Add(uint64(m))
			}
		}
	}
	// Part 0 counts straight into the global filter.
	addPart(global, 0)
	if parts > 1 && nReads > 1 {
		local, _ := NewCountingBloom(counters, hashes) // global's geometry, already accepted
		for p := 1; p < min(parts, nReads); p++ {
			clear(local.counters)
			addPart(local, p)
			if err := global.Merge(local); err != nil {
				return nil, err
			}
		}
	}
	return global, nil
}

// CountSinglePass runs the BEACON-S single-pass flow against one shared
// filter: every k-mer occurrence performs atomic filter updates, and
// occurrences whose pre-update estimate is already >= 1 also update the
// shared counter table. Reported counts are table+1 (the first occurrence
// lives only in the filter).
func CountSinglePass(reads []genome.Read, cfg Config, name string) (*FlowResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(reads) == 0 {
		return nil, fmt.Errorf("kmer: no reads")
	}
	instances, counters := filterGeometry(reads, cfg)
	filter, err := NewCountingBloom(counters, cfg.Hashes)
	if err != nil {
		return nil, err
	}
	stream := newKmerStream(reads, cfg.K, instances)
	raw := map[genome.Kmer]uint32{}
	for _, m := range stream.kmers {
		if filter.Add(uint64(m)) >= 1 {
			raw[m]++
		}
	}
	table := Counts{}
	for m, c := range raw {
		table[m] = c + 1
	}
	counted := make([]bool, len(stream.kmers))
	for i, m := range stream.kmers {
		_, counted[i] = table[m]
	}
	res := &FlowResult{Counts: table, FilterBytes: filter.Bytes()}
	res.TableBytes = tableCapacity(len(table)) * uint64(cfg.CounterEntryBytes)
	wl, err := emitCountingTrace(reads, stream, cfg, name, filter, counted, res, false)
	if err != nil {
		return nil, err
	}
	res.Workload = wl
	return res, nil
}

// emitCountingTrace builds the workload trace for either flow. multiPass
// selects the NEST two-pass shape (local filter spaces, explicit second
// input pass, merge traffic); otherwise the single-pass shape (shared
// spaces, atomic RMW everywhere). counted[i] reports whether the i-th
// k-mer occurrence of stream updates the counter table (in the multi-pass
// flow, on its second pass).
func emitCountingTrace(reads []genome.Read, stream *kmerStream, cfg Config, name string,
	filter *CountingBloom, counted []bool, res *FlowResult, multiPass bool) (*trace.Workload, error) {

	b := trace.NewBuilder(name)
	b.SetSpaceBytes(trace.SpaceBloom, res.FilterBytes)
	b.SetSpaceBytes(trace.SpaceCounters, res.TableBytes)
	var readBytes uint64
	for i := range reads {
		readBytes += uint64((reads[i].Seq.Len() + 3) / 4)
	}
	// +8: batch slices round up to byte boundaries past the packed buffer.
	b.SetSpaceBytes(trace.SpaceReads, readBytes+8)
	if multiPass {
		b.SetPasses(2)
		b.SetLocalSpace(trace.SpaceBloom, true)
		b.SetLocalSpace(trace.SpaceCounters, true)
		// Local filters travel to the merge point and the merged filter is
		// redistributed: two filter-sized transfers per participating node.
		b.SetMergeBytes(2 * res.FilterBytes)
	}

	k := cfg.K
	tableSlots := res.TableBytes / uint64(cfg.CounterEntryBytes)
	if tableSlots == 0 {
		tableSlots = 1
	}

	emitPass := func(second bool) {
		// The flow's last input pass is the one that updates the table.
		last := second || !multiPass
		var readOff uint64
		for ri := range reads {
			rb := uint32((reads[ri].Seq.Len() + 3) / 4)
			kmers := stream.read(ri)
			nk := len(kmers)
			var buf [8]uint64
			// Batch KmersPerTask consecutive k-mers into one task; each
			// batch streams its slice of the read, then probes the filter.
			for base := 0; base < nk; base += cfg.KmersPerTask {
				end := base + cfg.KmersPerTask
				if end > nk {
					end = nk
				}
				b.BeginTask(trace.EngineKMC)
				sliceBytes := uint32((end-base+k-1)+3) / 4
				b.Step(trace.Step{
					Op: trace.OpRead, Space: trace.SpaceReads,
					Addr: readOff + uint64(base/4), Size: sliceBytes + 1, Spatial: true, Light: true,
				})
				for i, m := range kmers[base:end] {
					op := trace.OpAtomicRMW // filter updates are increments
					if second {
						op = trace.OpRead // pass 2 only reads the filter
					}
					for hi, slot := range filter.slots(uint64(m), buf[:]) {
						// The useful payload is a 4-bit counter; the trace
						// models it as a 1-byte access ("1 bit for k-mer
						// counting" in the paper's packing discussion). The
						// KMC engine's 59-cycle hash computation is charged
						// once per k-mer; the remaining slot probes are
						// pipeline continuations.
						b.Step(trace.Step{
							Op: op, Space: trace.SpaceBloom, Addr: slot / 2, Size: 1,
							Light: hi > 0,
						})
					}
					if last && counted[stream.off[ri]+base+i] {
						b.Step(trace.Step{
							Op: trace.OpAtomicRMW, Space: trace.SpaceCounters,
							Addr: (kmerHash(m) % tableSlots) * uint64(cfg.CounterEntryBytes),
							Size: uint32(cfg.CounterEntryBytes), Light: true,
						})
					}
				}
				b.EndTask()
			}
			readOff += uint64(rb)
		}
	}
	emitPass(false)
	if multiPass {
		emitPass(true)
	}
	return b.Finish()
}
