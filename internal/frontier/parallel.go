package frontier

import (
	"slices"
	"sort"
)

// Parallel hybrid codec: every ChunkSpan-id chunk encodes and decodes
// independently, so the chunk stream can be built (and walked) by the
// per-rank worker pool in groups of consecutive chunks, concatenated in
// chunk order. The grouped stream is byte-identical to the serial one —
// same chunk boundaries, same container choices, same histogram — for
// every worker count, because group boundaries are a pure function of
// the universe size.

// Runner is the slice-parallelism contract the codec borrows from
// internal/pool without importing it: fixed chunk boundaries from
// (n, grain), any execution order, fn called exactly once per chunk.
// A nil Runner (or one reporting a single worker) means serial.
type Runner interface {
	Workers() int
	Run(n, grain int, fn func(chunk, lo, hi int))
}

// codecGrainChunks is the pool grain in hybrid chunks: groups of 8
// chunks (32768 ids of universe) amortize the per-group buffer and
// histogram merge while leaving enough groups to balance.
const codecGrainChunks = 8

// parallelWorthwhile gates the grouped paths: below ~2 groups the merge
// bookkeeping cannot win. The decision depends only on the universe
// size, never on the worker count, so it cannot perturb determinism
// (both paths produce identical bytes regardless).
func parallelWorthwhile(p Runner, n int) bool {
	return p != nil && p.Workers() > 1 && numChunks(n) > codecGrainChunks
}

// groupSpan returns the id-offset range [olo, ohi) of the pool chunk
// covering hybrid chunks [clo, chi) of an n-id universe.
func groupSpan(clo, chi, n int) (olo, ohi int) {
	olo = clo * ChunkSpan
	ohi = chi * ChunkSpan
	if ohi > n {
		ohi = n
	}
	return olo, ohi
}

// appendSetChunksPar is appendSetChunks built by chunk groups on the
// runner. ids must be ascending; out-of-universe ids panic exactly like
// the serial path (they fall outside every group, detected after the
// merge).
func appendSetChunksPar(p Runner, buf []uint32, ids []uint32, lo uint32, n int, h *ContainerHist) []uint32 {
	nc := numChunks(n)
	ng := (nc + codecGrainChunks - 1) / codecGrainChunks
	bufs := make([][]uint32, ng)
	hists := make([]ContainerHist, ng)
	counts := make([]int, ng)
	p.Run(nc, codecGrainChunks, func(g, clo, chi int) {
		olo, ohi := groupSpan(clo, chi, n)
		base := uint64(lo) + uint64(olo)
		s := sort.Search(len(ids), func(i int) bool { return uint64(ids[i]) >= base })
		e := sort.Search(len(ids), func(i int) bool { return uint64(ids[i]) >= uint64(lo)+uint64(ohi) })
		counts[g] = e - s
		bufs[g] = appendSetChunks(nil, ids[s:e], lo+uint32(olo), ohi-olo, &hists[g])
	})
	total := 0
	for g := 0; g < ng; g++ {
		total += counts[g]
		buf = append(buf, bufs[g]...)
		h.Add(hists[g])
	}
	if total != len(ids) {
		panic("frontier: id outside the universe in hybrid set payload")
	}
	return buf
}

// appendBitsChunksPar is appendBitsChunks by chunk groups: boundaries
// align with bitmap words (ChunkSpan/32 per chunk), so each group reads
// a disjoint word subrange.
func appendBitsChunksPar(p Runner, buf []uint32, words []uint32, n int, h *ContainerHist) []uint32 {
	const wordsPerChunk = ChunkSpan / 32
	nc := numChunks(n)
	ng := (nc + codecGrainChunks - 1) / codecGrainChunks
	bufs := make([][]uint32, ng)
	hists := make([]ContainerHist, ng)
	p.Run(nc, codecGrainChunks, func(g, clo, chi int) {
		olo, ohi := groupSpan(clo, chi, n)
		wlo := clo * wordsPerChunk
		whi := wlo + BitWords(ohi-olo)
		bufs[g] = appendBitsChunks(nil, words[wlo:whi], ohi-olo, &hists[g])
	})
	for g := 0; g < ng; g++ {
		buf = append(buf, bufs[g]...)
		h.Add(hists[g])
	}
	return buf
}

// chunkStarts walks the stream's headers — one word per chunk, cheap
// and strictly sequential — returning the word offset of every chunk's
// header plus the stream end. The same truncation panics as
// decodeChunks apply; the per-chunk payloads are not touched.
func chunkStarts(stream []uint32, nc int) []int {
	starts := make([]int, nc+1)
	pos := 0
	for c := 0; c < nc; c++ {
		starts[c] = pos
		if pos >= len(stream) {
			panic("frontier: truncated hybrid chunk stream")
		}
		nw := int(stream[pos] & chunkWordsMask)
		pos += 1 + nw
		if pos > len(stream) {
			panic("frontier: truncated hybrid chunk payload")
		}
	}
	if pos != len(stream) {
		panic("frontier: trailing words in hybrid chunk stream")
	}
	starts[nc] = pos
	return starts
}

// appendChunksPar walks a chunk stream over the universe [lo, lo+n) by
// groups on the runner, appending the ascending ids to dst. Malformed
// payloads panic with the serial messages (re-raised by the runner).
func appendChunksPar(p Runner, dst, stream []uint32, lo uint32, n int) []uint32 {
	nc := numChunks(n)
	starts := chunkStarts(stream, nc)
	ng := (nc + codecGrainChunks - 1) / codecGrainChunks
	outs := make([][]uint32, ng)
	p.Run(nc, codecGrainChunks, func(g, clo, chi int) {
		olo, ohi := groupSpan(clo, chi, n)
		sub := stream[starts[clo]:starts[chi]]
		out := make([]uint32, 0, (ohi-olo)/8)
		decodeChunks(sub, ohi-olo, func(off uint32) { out = append(out, lo+uint32(olo)+off) })
		outs[g] = out
	})
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	dst = slices.Grow(dst, total)
	for _, o := range outs {
		dst = append(dst, o...)
	}
	return dst
}

// EncodeSetStatsPar is EncodeSetStats with the hybrid chunk stream
// built on the runner. Output and histogram are byte-identical to the
// serial call for every worker count.
func EncodeSetStatsPar(p Runner, ids []uint32, lo uint32, n int, mode WireMode, h *ContainerHist) []uint32 {
	return AppendEncodeSetPar(p, nil, ids, lo, n, mode, h)
}

// EncodeSetBound is the capacity AppendEncodeSetPar may use past dst
// for a count-member set over an n-id universe under mode: the payload,
// or the hybrid chunk stream it is chosen against. A caller that
// reserves it gets the payload appended without a reallocation.
func EncodeSetBound(mode WireMode, n, count int) int {
	switch {
	case mode == WireHybrid && !rawBeatsHybrid(n, count):
		return 3 + streamBound(n, count)
	case mode == WireDense || mode == WireAuto && denseCheaper(n, count):
		return 3 + BitWords(n)
	}
	return count
}

// AppendEncodeSetPar appends to dst exactly what EncodeSetStatsPar
// returns, growing dst at most once, by EncodeSetBound, and only when
// its spare capacity is short. The payload is built in place: a hybrid
// stream that loses to the raw list or the bitmap is overwritten by it.
func AppendEncodeSetPar(p Runner, dst, ids []uint32, lo uint32, n int, mode WireMode, h *ContainerHist) []uint32 {
	head := len(dst)
	dst = slices.Grow(dst, EncodeSetBound(mode, n, len(ids)))
	raw := func(dst []uint32) []uint32 { return appendRaw(dst, ids) }
	switch {
	case mode == WireHybrid && !rawBeatsHybrid(n, len(ids)):
		var chunks ContainerHist
		dst = append(dst, hybridSentinel, lo, uint32(n))
		if parallelWorthwhile(p, n) {
			dst = appendSetChunksPar(p, dst, ids, lo, n, &chunks)
		} else {
			dst = appendSetChunks(dst, ids, lo, n, &chunks)
		}
		return pickHybridForm(dst, head, chunks, len(ids), lo, n, h, raw,
			func(dst []uint32) []uint32 { return appendIDBits(dst, ids, lo, n) })
	case mode == WireDense || mode == WireAuto && denseCheaper(n, len(ids)):
		if h != nil {
			h.DensePayloads++
		}
		return appendIDBits(appendDenseHeader(dst, lo, n), ids, lo, n)
	default:
		if h != nil {
			h.RawPayloads++
		}
		return raw(dst)
	}
}

// EncodeFrontier encodes a frontier's members exactly like
// EncodeSetStatsPar, the hybrid chunk stream built on the runner (a nil
// or one-worker runner runs inline). A dense frontier is encoded word
// for word from its bitmap instead of materializing an id list and
// rebuilding the bitmap.
func EncodeFrontier(p Runner, f *Adaptive, mode WireMode, h *ContainerHist) []uint32 {
	lo, n := f.Universe()
	if !f.isDense {
		return EncodeSetStatsPar(p, f.Vertices(), lo, n, mode, h)
	}
	switch {
	case mode == WireHybrid && !rawBeatsHybrid(n, f.count):
		w := f.Bits()
		var chunks ContainerHist
		hyb := append(make([]uint32, 0, 3+streamBound(n, f.count)), hybridSentinel, lo, uint32(n))
		if parallelWorthwhile(p, n) {
			hyb = appendBitsChunksPar(p, hyb, w, n, &chunks)
		} else {
			hyb = appendBitsChunks(hyb, w, n, &chunks)
		}
		return pickHybridForm(hyb, 0, chunks, f.count, lo, n, h,
			func(dst []uint32) []uint32 { return appendRaw(dst, f.Vertices()) },
			func(dst []uint32) []uint32 { return append(dst, w...) })
	case mode == WireDense || (mode == WireAuto && denseCheaper(n, f.count)):
		if h != nil {
			h.DensePayloads++
		}
		return append(appendDenseHeader(make([]uint32, 0, 3+BitWords(n)), lo, n), f.Bits()...)
	default:
		return EncodeSetStats(f.Vertices(), lo, n, mode, h)
	}
}

// EncodeBitsPar is EncodeBits with the chunk stream built on the
// runner.
func EncodeBitsPar(p Runner, words []uint32, n int, mode WireMode, h *ContainerHist) []uint32 {
	if mode != WireHybrid || !parallelWorthwhile(p, n) {
		return EncodeBits(words, n, mode, h)
	}
	var hist ContainerHist
	stream := appendBitsChunksPar(p, make([]uint32, 0, numChunks(n)), words, n, &hist)
	if len(stream) >= len(words) {
		if h != nil {
			h.DensePayloads++
		}
		return words
	}
	if h != nil {
		hist.HybridPayloads++
		h.Add(hist)
	}
	return stream
}

// DecodePar is Decode with hybrid chunk streams walked on the runner.
func DecodePar(p Runner, buf []uint32) []uint32 {
	if len(buf) == 0 || buf[0] < hybridSentinel {
		return buf
	}
	return AppendDecodePar(p, nil, buf)
}

// AppendDecodePar is AppendDecode with hybrid chunk streams walked on
// the runner.
func AppendDecodePar(p Runner, dst, buf []uint32) []uint32 {
	if len(buf) >= 3 && buf[0] == hybridSentinel {
		lo, n := buf[1], int(buf[2])
		if parallelWorthwhile(p, n) {
			if uint64(lo)+uint64(n) > uint64(hybridSentinel) {
				panic("frontier: hybrid universe exceeds the id space")
			}
			return appendChunksPar(p, dst, buf[3:], lo, n)
		}
	}
	return AppendDecode(dst, buf)
}

// DecodeBitsPar is DecodeBits with chunk streams walked on the runner.
// Each chunk's members land in a disjoint word range of the output
// bitmap, so the groups write without synchronization.
func DecodeBitsPar(p Runner, buf []uint32, n int) []uint32 {
	if len(buf) == BitWords(n) || !parallelWorthwhile(p, n) {
		return DecodeBits(buf, n)
	}
	nc := numChunks(n)
	starts := chunkStarts(buf, nc)
	w := NewBits(n)
	p.Run(nc, codecGrainChunks, func(g, clo, chi int) {
		olo, ohi := groupSpan(clo, chi, n)
		sub := buf[starts[clo]:starts[chi]]
		decodeChunks(sub, ohi-olo, func(off uint32) { SetBit(w, uint32(olo)+off) })
	})
	return w
}
