package frontier

import (
	"math/bits"
	"slices"
	"sort"
)

// Hybrid chunked container codec: the universe [lo, lo+n) is split into
// fixed-width chunks of ChunkSpan ids and every chunk is encoded
// independently as the cheapest of four containers — a delta-varint id
// list, a plain bitmap, run-length extents, or bit-packed fixed-width
// deltas — mirroring the roaring-bitmap design but packed into uint32
// wire words so the word-based torus cost model and comm accounting
// stay exact.
//
// Chunk stream layout (one entry per chunk, in chunk order, empty
// chunks included):
//
//	header word: container type in the top 2 bits, payload word count
//	in the low 30 bits, followed by that many payload words.
//
// Byte-granular containers (list, runs) are LEB128 varint streams
// packed little-endian into words, zero-padded to a word boundary:
//
//	list:  count, off[0], off[1]-off[0]-1, off[2]-off[1]-1, ...
//	runs:  nruns, then per run: gap from the previous run's end, len-1
//
// The packed container is word-granular: one meta word (count-1, delta
// width, first offset) followed by fixed-width bit-packed deltas — see
// appendPackedChunk.
//
// All offsets are chunk-relative (< ChunkSpan, so every varint fits in
// two bytes). A set payload wraps the chunk stream in a
// [hybridSentinel, lo, n] header, self-describing next to the raw-list
// and dense-bitmap forms; a bitmap payload (EncodeBits) ships the bare
// chunk stream and is distinguished from a raw bitmap by length alone.

// ChunkSpan is the fixed hybrid chunk width in ids (2^12): small enough
// that chunk-relative offsets varint-encode in at most two bytes, large
// enough that per-chunk header overhead is negligible.
const ChunkSpan = 1 << 12

// hybridSentinel leads a hybrid set payload. Like wireSentinel it can
// never lead a raw id list (vertex ids live strictly below both
// sentinels).
const hybridSentinel = ^uint32(0) - 1

// Container type codes stored in chunk headers (3 bits; payload word
// counts use the remaining 29, far above any chunk's worst case of
// ChunkSpan/32 + 1 words).
const (
	chunkEmpty  = 0 // no members, header only
	chunkList   = 1 // delta-varint id list
	chunkBitmap = 2 // plain bitmap over the chunk span
	chunkRuns   = 3 // run-length extents
	chunkPacked = 4 // bit-packed fixed-width deltas
)

const (
	chunkTypeShift = 29
	chunkWordsMask = 1<<chunkTypeShift - 1
)

// ContainerHist counts the hybrid codec's choices: how many whole
// payloads fell back to the raw list or dense bitmap versus carrying a
// chunk stream, and which container each encoded chunk used. The BFS
// engines aggregate one histogram per level.
type ContainerHist struct {
	RawPayloads    int64 // payloads shipped as raw id lists
	DensePayloads  int64 // payloads shipped as whole-universe bitmaps
	HybridPayloads int64 // payloads shipped as chunk streams
	EmptyChunks    int64
	ListChunks     int64
	BitmapChunks   int64
	RunChunks      int64
	PackedChunks   int64
}

// Add accumulates other into h.
func (h *ContainerHist) Add(other ContainerHist) {
	h.RawPayloads += other.RawPayloads
	h.DensePayloads += other.DensePayloads
	h.HybridPayloads += other.HybridPayloads
	h.EmptyChunks += other.EmptyChunks
	h.ListChunks += other.ListChunks
	h.BitmapChunks += other.BitmapChunks
	h.RunChunks += other.RunChunks
	h.PackedChunks += other.PackedChunks
}

// Sub returns h - other, the delta between two snapshots.
func (h ContainerHist) Sub(other ContainerHist) ContainerHist {
	return ContainerHist{
		RawPayloads:    h.RawPayloads - other.RawPayloads,
		DensePayloads:  h.DensePayloads - other.DensePayloads,
		HybridPayloads: h.HybridPayloads - other.HybridPayloads,
		EmptyChunks:    h.EmptyChunks - other.EmptyChunks,
		ListChunks:     h.ListChunks - other.ListChunks,
		BitmapChunks:   h.BitmapChunks - other.BitmapChunks,
		RunChunks:      h.RunChunks - other.RunChunks,
		PackedChunks:   h.PackedChunks - other.PackedChunks,
	}
}

// Payloads returns the number of payloads the histogram covers.
func (h ContainerHist) Payloads() int64 {
	return h.RawPayloads + h.DensePayloads + h.HybridPayloads
}

// --- varint helpers -------------------------------------------------

func uvarintLen(v uint32) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// wordWriter writes a container's fields straight into its reserved
// payload words through a 64-bit accumulator: fields land LSB-first, the
// word being filled is stored after every field and the writer moves on
// once it holds 32 bits, without a branch, and the last word is
// zero-padded — no intermediate byte buffer. The byte-granular
// containers (list, runs) write little-endian varints as 8- or 16-bit
// fields, the packed one its fixed-width deltas. The payload must be
// exactly as long as the fields written, as the chunk's pricing makes
// it.
type wordWriter struct {
	out []uint32
	i   int
	acc uint64
	n   uint // bits held in acc
}

// reserve extends buf by words payload words and returns it with a
// writer over them.
func reserve(buf []uint32, words int) ([]uint32, wordWriter) {
	at := len(buf)
	buf = slices.Grow(buf, words)[:at+words]
	return buf, wordWriter{out: buf[at:]}
}

// put writes the low width bits of v, width at most 32.
func (w *wordWriter) put(v uint32, width uint) {
	w.acc |= uint64(v) << w.n
	w.n += width
	w.out[w.i] = uint32(w.acc)
	full := w.n >> 5
	w.i += int(full)
	w.acc >>= full << 5
	w.n &= 31
}

// flush stores the bits a field spilled past the last full word.
func (w *wordWriter) flush() {
	if w.n > 0 {
		w.out[w.i] = uint32(w.acc)
	}
}

// uvarint writes v, below 2^14 as every chunk-relative value is, as a
// LEB128 varint without a branch: one byte v below 128, else v's low
// seven bits with the continuation bit, then v>>7 — the 16-bit field
// v + (1 + v>>7)<<7.
func (w *wordWriter) uvarint(v uint32) {
	hi := v >> 7
	two := min(hi, 1)
	w.put(v+(two+hi)<<7, 8+8*uint(two))
}

// readUvarint decodes one varint at byte position pos of the packed
// words (including any zero padding; varint streams carry their own
// counts), returning the value and the position after it; it panics on
// truncation (malformed payloads are protocol bugs, matching the dense
// codec).
func readUvarint(words []uint32, pos int) (uint32, int) {
	var v uint32
	var shift uint
	for {
		if pos >= 4*len(words) {
			panic("frontier: truncated varint in hybrid chunk")
		}
		c := byte(words[pos>>2] >> (8 * uint(pos&3)))
		pos++
		v |= uint32(c&0x7f) << shift
		if c < 0x80 {
			return v, pos
		}
		shift += 7
		if shift > 28 {
			panic("frontier: varint overflow in hybrid chunk")
		}
	}
}

func bytesToWords(n int) int { return (n + 3) / 4 }

// --- chunk pricing --------------------------------------------------

// chunkStats are the counts a chunk's container costs follow from,
// gathered in one walk over its members. A chunk's varints are one or
// two bytes (every value is below ChunkSpan), so the list takes its
// count varint, a byte a member and a byte more for every big value —
// the first offset or a gap minus one of 128 or more; the runs take
// their count varint, two bytes a run, a byte more for every big value
// (each opens a run: its gap from the previous run's end) and one for
// every long run, whose length-1 is 128 or more.
type chunkStats struct {
	count, big, nruns, long int
	maxDelta                uint32 // largest gap minus one
}

// costs returns the payload words of the list, bitmap, runs and packed
// containers of a chunk over span ids.
func (s chunkStats) costs(span int) (list, bitmap, runs, packed int) {
	list = bytesToWords(uvarintLen(uint32(s.count)) + s.count + s.big)
	runs = bytesToWords(uvarintLen(uint32(s.nruns)) + 2*s.nruns + s.big + s.long)
	return list, BitWords(span), runs, packedCost(s.count, s.maxDelta)
}

// choose picks the cheapest container and returns it with its payload
// words, recording the choice in h. Ties keep the pre-packed preference
// order (list, then runs, then bitmap), so the packed form is only ever
// chosen when it strictly shrinks a chunk and can never regress.
func (s chunkStats) choose(span int, h *ContainerHist) (choice uint32, words int) {
	list, bitmap, runs, packed := s.costs(span)
	choice, words = chunkList, list
	if runs < words {
		choice, words = chunkRuns, runs
	}
	if packed < words {
		choice, words = chunkPacked, packed
	}
	if bitmap < words {
		choice, words = chunkBitmap, bitmap
	}
	switch choice {
	case chunkList:
		h.ListChunks++
	case chunkRuns:
		h.RunChunks++
	case chunkPacked:
		h.PackedChunks++
	default:
		h.BitmapChunks++
	}
	return choice, words
}

// idStats prices the chunk of ascending ids from base in one pass over
// their gaps, which do not depend on base; a second, branch-free pass
// counts the long runs only when 128 zero gaps make one possible.
func idStats(ids []uint32, base uint32) chunkStats {
	s := chunkStats{count: len(ids)}
	if len(ids) == 0 {
		return s
	}
	big := min((ids[0]-base)>>7, 1)
	var zeros, maxDelta uint32
	prev := ids[0]
	for _, v := range ids[1:] {
		d := v - prev - 1
		prev = v
		maxDelta = max(maxDelta, d)
		big += min(d>>7, 1)
		zeros += 1 - min(d, 1)
	}
	s.big, s.nruns, s.maxDelta = int(big), len(ids)-int(zeros), maxDelta
	if zeros >= 128 {
		// A run longer than 128 ids opens at i when the 129 ids from i
		// are consecutive and id i-1 is not ids[i]-1: counted without a
		// branch, as ids ascend.
		long := 1 - min(ids[128]-ids[0]-128, 1)
		for i := 1; i+128 < len(ids); i++ {
			long += (1 - min(ids[i+128]-ids[i]-128, 1)) & min(ids[i]-ids[i-1]-1, 1)
		}
		s.long = int(long)
	}
	return s
}

// bitStats prices the chunk whose members are the set bits of w in one
// walk over them.
func bitStats(w []uint32) chunkStats {
	var s chunkStats
	prev, run := -1, 0 // run: the current run's length-1
	for wi, x := range w {
		for ; x != 0; x &= x - 1 {
			off := wi*32 + bits.TrailingZeros32(x)
			d := uint32(off - prev - 1) // the first member's offset itself
			s.count++
			s.big += int(min(d>>7, 1))
			if prev >= 0 {
				s.maxDelta = max(s.maxDelta, d)
				if d == 0 {
					run++
					prev = off
					continue
				}
				s.long += int(min(uint(run)>>7, 1))
			}
			s.nruns++
			run, prev = 0, off
		}
	}
	if s.nruns > 0 {
		s.long += int(min(uint(run)>>7, 1))
	}
	return s
}

// packedCost is the word count of the bit-packed fixed-width delta
// container: one meta word plus count-1 deltas at the width of the
// largest gap. Where the varint list pays whole bytes per member, the
// packed form pays the chunk's entropy-ish width — the winner in the
// ~12% occupancy crossover band, where gaps fit in 4-6 bits but the
// bitmap is still twice as wide as the membership.
func packedCost(count int, maxDelta uint32) int {
	if count <= 1 {
		return 1
	}
	width := bits.Len32(maxDelta)
	return 1 + ((count-1)*width+31)/32
}

// --- chunk encoding -------------------------------------------------

// Packed chunk payload layout: a meta word holding count-1 (bits 0-11),
// the delta width in bits (12-15), and the first member's offset
// (16-27), followed by count-1 deltas (member gap minus one) packed
// LSB-first at the fixed width. All offsets are chunk-relative, so
// count-1, first, and every delta fit in 12 bits.
const (
	packedCountBits = 12
	packedWidthBits = 4
	packedFirstOff  = packedCountBits + packedWidthBits
)

// packedMeta returns a packed chunk's meta word.
func packedMeta(s chunkStats, first uint32) uint32 {
	return uint32(s.count-1) | uint32(bits.Len32(s.maxDelta))<<packedCountBits | first<<packedFirstOff
}

// encodeChunk appends one chunk's header and payload for the ascending
// duplicate-free ids of [base, base+span), choosing the cheapest
// container, and records the choice in h. The container is written
// from the ids themselves.
func encodeChunk(buf []uint32, ids []uint32, base uint32, span int, h *ContainerHist) []uint32 {
	if len(ids) == 0 {
		h.EmptyChunks++
		return append(buf, chunkEmpty<<chunkTypeShift)
	}
	s := idStats(ids, base)
	choice, words := s.choose(span, h)
	buf, w := reserve(append(buf, choice<<chunkTypeShift|uint32(words)), words)
	prev := ids[0]
	switch choice {
	case chunkList:
		w.uvarint(uint32(s.count))
		w.uvarint(prev - base)
		for _, v := range ids[1:] {
			w.uvarint(v - prev - 1)
			prev = v
		}
	case chunkRuns:
		w.uvarint(uint32(s.nruns))
		w.uvarint(prev - base) // the first run's gap from 0
		run := uint32(0)
		for _, v := range ids[1:] {
			d := v - prev - 1
			prev = v
			if d == 0 {
				run++
				continue
			}
			w.uvarint(run)
			w.uvarint(d)
			run = 0
		}
		w.uvarint(run)
	case chunkPacked:
		writePacked(&w, ids, base, s)
	default:
		clear(w.out)
		for _, v := range ids {
			SetBit(w.out, v-base)
		}
	}
	w.flush()
	return buf
}

// writePacked writes the payload of the packed chunk of ids from base,
// priced s: its meta word, then its deltas.
func writePacked(w *wordWriter, ids []uint32, base uint32, s chunkStats) {
	prev := ids[0]
	w.put(packedMeta(s, prev-base), 32)
	width := uint(bits.Len32(s.maxDelta))
	if width == 0 {
		return // consecutive ids: the deltas take no bits, and a put would store past the payload
	}
	for _, v := range ids[1:] {
		w.put(v-prev-1, width)
		prev = v
	}
}

// encodeBitsChunk is encodeChunk for the chunk whose members are the set
// bits of w, written in one walk over them; the caller has copied the
// chunks the bitmap wins (bitmapWins).
func encodeBitsChunk(buf []uint32, w []uint32, span int, h *ContainerHist) []uint32 {
	s := bitStats(w)
	if s.count == 0 {
		h.EmptyChunks++
		return append(buf, chunkEmpty<<chunkTypeShift)
	}
	choice, words := s.choose(span, h)
	if choice == chunkBitmap {
		return append(append(buf, chunkBitmap<<chunkTypeShift|uint32(words)), w...)
	}
	buf, wr := reserve(append(buf, choice<<chunkTypeShift|uint32(words)), words)
	width := uint(bits.Len32(s.maxDelta))
	prev, run := -1, uint32(0)
	for wi, x := range w {
		for ; x != 0; x &= x - 1 {
			off := wi*32 + bits.TrailingZeros32(x)
			d := uint32(off - prev - 1)
			switch {
			case prev < 0 && choice == chunkPacked:
				wr.put(packedMeta(s, d), 32)
			case prev < 0:
				head := s.count
				if choice == chunkRuns {
					head = s.nruns
				}
				wr.uvarint(uint32(head))
				wr.uvarint(d)
			case choice == chunkList:
				wr.uvarint(d)
			case choice == chunkPacked:
				if width > 0 { // a zero-width put would store past the payload
					wr.put(d, width)
				}
			case d == 0:
				run++
			default:
				wr.uvarint(run)
				wr.uvarint(d)
				run = 0
			}
			prev = off
		}
	}
	if choice == chunkRuns {
		wr.uvarint(run)
	}
	wr.flush()
	return buf
}

// numChunks returns the chunk count covering an n-id universe.
func numChunks(n int) int { return (n + ChunkSpan - 1) / ChunkSpan }

// appendSetChunks appends the chunk stream for an ascending id set over
// [lo, lo+n), each chunk's ids a subslice of ids.
func appendSetChunks(buf []uint32, ids []uint32, lo uint32, n int, h *ContainerHist) []uint32 {
	if len(ids) > 0 && (ids[0] < lo || uint64(ids[len(ids)-1]-lo) >= uint64(n)) {
		// The set is ascending, so its ends bound it: an id outside the
		// universe would land in no chunk or in the wrong one — fail as
		// loudly as the bitmap modes do.
		panic("frontier: id outside the universe in hybrid set payload")
	}
	for c := 0; c < numChunks(n); c++ {
		base := uint32(c * ChunkSpan)
		span := min(n-c*ChunkSpan, ChunkSpan)
		k := len(ids)
		if c < numChunks(n)-1 {
			// The first id past the chunk, by bisection.
			end := base + uint32(span)
			k = sort.Search(len(ids), func(i int) bool { return ids[i]-lo >= end })
		}
		buf = encodeChunk(buf, ids[:k], lo+base, span, h)
		ids = ids[k:]
	}
	return buf
}

// appendBitsChunks appends the chunk stream for a wire bitmap over
// [0, n). Chunk boundaries align with bitmap words (ChunkSpan/32 words
// per chunk), so each chunk is a word subrange; a chunk the bitmap
// provably wins (bitmapWins) is copied without a walk over its members.
func appendBitsChunks(buf []uint32, words []uint32, n int, h *ContainerHist) []uint32 {
	const wordsPerChunk = ChunkSpan / 32
	for c := 0; c < numChunks(n); c++ {
		span := min(n-c*ChunkSpan, ChunkSpan)
		w := words[c*wordsPerChunk : c*wordsPerChunk+BitWords(span)]
		if bitmapWins(w) {
			h.BitmapChunks++
			buf = append(append(buf, chunkBitmap<<chunkTypeShift|uint32(len(w))), w...)
			continue
		}
		buf = encodeBitsChunk(buf, w, span, h)
	}
	return buf
}

// bitmapWins reports whether encodeChunk would pick the bitmap for the
// chunk w without enumerating its members. Members and run starts,
// counted a word at a time, must put the least the list (a count varint
// and a byte a member) and the runs (a count varint and two bytes a run)
// can take above the bitmap's width; so must the packed container at the
// largest gap, which a bit walk finds, stopping once the packed loses.
func bitmapWins(w []uint32) bool {
	count, nruns, carry := 0, 0, uint32(0) // carry: the last word's top bit
	for _, x := range w {
		count += bits.OnesCount32(x)
		nruns += bits.OnesCount32(x &^ (x<<1 | carry))
		carry = x >> 31
	}
	bitmap := len(w)
	if bitmap >= bytesToWords(uvarintLen(uint32(count))+count) || bitmap >= bytesToWords(uvarintLen(uint32(nruns))+2*nruns) {
		return false
	}
	maxDelta, prev := uint32(0), -1
	for wi, x := range w {
		for ; x != 0; x &= x - 1 {
			off := wi*32 + bits.TrailingZeros32(x)
			if prev >= 0 && uint32(off-prev-1) > maxDelta {
				if maxDelta = uint32(off - prev - 1); bitmap < packedCost(count, maxDelta) {
					return true
				}
			}
			prev = off
		}
	}
	return bitmap < packedCost(count, maxDelta)
}

// --- chunk decoding -------------------------------------------------

// members collects decoded chunk members: appended to ids as lo+off or,
// with bm non-nil, set as bit off of bm.
type members struct {
	ids []uint32
	lo  uint32
	bm  []uint32
}

func (m *members) add(off uint32) {
	if m.bm != nil {
		SetBit(m.bm, off)
	} else {
		m.ids = append(m.ids, m.lo+off)
	}
}

// decodeChunks walks a chunk stream over an n-id universe into out, each
// member's universe-relative offset in ascending order, one loop per
// container. Every count, offset and width is checked against the
// chunk's span before it is used, so a forged stream panics instead of
// writing out of place.
func decodeChunks(stream []uint32, n int, out *members) {
	pos := 0
	for c := 0; c < numChunks(n); c++ {
		base := uint32(c * ChunkSpan)
		span := min(n-c*ChunkSpan, ChunkSpan)
		if pos >= len(stream) {
			panic("frontier: truncated hybrid chunk stream")
		}
		header := stream[pos]
		pos++
		nw := int(header & chunkWordsMask)
		if pos+nw > len(stream) {
			panic("frontier: truncated hybrid chunk payload")
		}
		payload := stream[pos : pos+nw]
		pos += nw
		switch header >> chunkTypeShift {
		case chunkEmpty:
		case chunkPacked:
			decodePackedChunk(payload, base, span, out)
		case chunkList:
			count, bp := readUvarint(payload, 0)
			if int(count) > span {
				panic("frontier: hybrid list chunk overflows its span")
			}
			var off uint32
			for i := uint32(0); i < count; i++ {
				var d uint32
				d, bp = readUvarint(payload, bp)
				if i == 0 {
					off = d
				} else {
					off += d + 1
				}
				if int(off) >= span {
					panic("frontier: hybrid list chunk offset overflows its span")
				}
				out.add(base + off)
			}
		case chunkBitmap:
			if nw != BitWords(span) {
				panic("frontier: hybrid bitmap chunk has wrong width")
			}
			if pad := span % 32; pad != 0 && payload[nw-1]>>uint(pad) != 0 {
				panic("frontier: hybrid bitmap chunk has bits set beyond its span")
			}
			if out.bm != nil {
				copy(out.bm[base/32:], payload)
				continue
			}
			for wi, x := range payload {
				for ; x != 0; x &= x - 1 {
					out.ids = append(out.ids, out.lo+base+uint32(wi*32+bits.TrailingZeros32(x)))
				}
			}
		case chunkRuns:
			nruns, bp := readUvarint(payload, 0)
			at := uint32(0)
			for r := uint32(0); r < nruns; r++ {
				var gap, runLen uint32
				gap, bp = readUvarint(payload, bp)
				runLen, bp = readUvarint(payload, bp)
				at += gap
				if int(at)+int(runLen) >= span {
					panic("frontier: hybrid runs chunk overflows its span")
				}
				for end := at + runLen; at <= end; at++ {
					out.add(base + at)
				}
			}
		default:
			panic("frontier: unknown hybrid chunk container")
		}
	}
	if pos != len(stream) {
		panic("frontier: trailing words in hybrid chunk stream")
	}
}

// decodePackedChunk adds the members of a packed chunk payload, from
// base, to out in ascending order.
func decodePackedChunk(payload []uint32, base uint32, span int, out *members) {
	if len(payload) == 0 {
		panic("frontier: truncated packed chunk")
	}
	meta := payload[0]
	count := int(meta&(1<<packedCountBits-1)) + 1
	width := uint(meta >> packedCountBits & (1<<packedWidthBits - 1))
	off := meta >> packedFirstOff
	if count > span || int(off) >= span {
		panic("frontier: packed chunk overflows its span")
	}
	// The delta words the meta claims must actually be present — a
	// forged header must not index past the payload.
	if need := 1 + (uint(count-1)*width+31)/32; uint(len(payload)) < need {
		panic("frontier: packed chunk payload shorter than its meta word claims")
	}
	out.add(base + off)
	mask := uint64(1)<<width - 1
	var acc uint64 // the next deltas, LSB-first
	var held uint  // bits in acc
	next := 1
	for i := 1; i < count; i++ {
		if held < width {
			acc |= uint64(payload[next]) << held
			next++
			held += 32
		}
		off += uint32(acc&mask) + 1
		acc >>= width
		held -= width
		if int(off) >= span {
			panic("frontier: packed chunk offset overflows its span")
		}
		out.add(base + off)
	}
}

// streamBound bounds the words of the chunk stream of count members
// over an n-id universe, so an encoder can reserve its output once: a
// header word per chunk, and per chunk no more payload than its bitmap
// (span/32 words) or its varint list (at most two bytes per member and
// for the count, rounded up to a word).
func streamBound(n, count int) int {
	return numChunks(n) + min(BitWords(n)+numChunks(n), (count+1)/2+2*numChunks(n))
}

// appendHybridSet inverts encodeHybridSet, appending the ids to dst.
func appendHybridSet(dst, buf []uint32) []uint32 {
	if len(buf) < 3 {
		panic("frontier: truncated hybrid wire payload")
	}
	lo, n := buf[1], int(buf[2])
	if uint64(lo)+uint64(n) > uint64(hybridSentinel) {
		// Vertex ids live strictly below the sentinels; a universe
		// reaching past them would let lo+off wrap uint32.
		panic("frontier: hybrid universe exceeds the id space")
	}
	if cap(dst) == 0 {
		// Size a fresh output from the universe, but never let a forged
		// header n drive the allocation: a genuine stream of len(buf)
		// words can hold at most ~32 members per word, so cap by that.
		dst = make([]uint32, 0, min(n/8, 32*len(buf)))
	}
	out := members{ids: dst, lo: lo}
	decodeChunks(buf[3:], n, &out)
	return out.ids
}

// EncodeBits encodes a wire bitmap over [0, n) for transmission.
// WireHybrid replaces the raw bitmap with the chunked container stream
// whenever that is strictly fewer words (so a hybrid bits payload is
// never longer than the raw bitmap); every other mode — and any bitmap
// the containers cannot beat — ships the words unchanged. The two forms
// are told apart by length: a raw payload has exactly BitWords(n)
// words, and a chunk stream is only ever chosen when shorter.
func EncodeBits(words []uint32, n int, mode WireMode, h *ContainerHist) []uint32 {
	if mode != WireHybrid || n == 0 {
		return words
	}
	var hist ContainerHist
	stream := appendBitsChunks(make([]uint32, 0, streamBound(n, CountBits(words))), words, n, &hist)
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

// DecodeBits inverts EncodeBits, returning the full-width wire bitmap
// over [0, n). Raw bitmaps (exactly BitWords(n) words) pass through
// aliased.
func DecodeBits(buf []uint32, n int) []uint32 {
	if len(buf) == BitWords(n) {
		return buf
	}
	out := members{bm: NewBits(n)}
	decodeChunks(buf, n, &out)
	return out.bm
}
