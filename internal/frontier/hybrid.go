package frontier

import "math/bits"

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

// bytePacker streams a byte-granular container straight into its wire
// words: bytes land little-endian, four to a word, and the last word is
// zero-padded — no intermediate byte buffer.
type bytePacker struct {
	buf []uint32
	cur uint32
	n   uint // bytes held in cur
}

func (p *bytePacker) put(b byte) {
	p.cur |= uint32(b) << (8 * p.n)
	if p.n++; p.n == 4 {
		p.buf = append(p.buf, p.cur)
		p.cur, p.n = 0, 0
	}
}

func (p *bytePacker) uvarint(v uint32) {
	for v >= 0x80 {
		p.put(byte(v) | 0x80)
		v >>= 7
	}
	p.put(byte(v))
}

// words flushes the padded tail and returns the extended buffer.
func (p *bytePacker) words() []uint32 {
	if p.n > 0 {
		p.buf = append(p.buf, p.cur)
	}
	return p.buf
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

// --- chunk encoding -------------------------------------------------

// chunkCosts returns the payload word counts of the four containers
// for a chunk holding offs (ascending, chunk-relative) over span ids,
// plus the run count and largest member gap the encoders need.
func chunkCosts(offs []uint32, span int) (list, bitmap, runs, packed, nruns int, maxDelta uint32) {
	listBytes := uvarintLen(uint32(len(offs)))
	runsBytes := 0
	prevEnd := uint32(0) // one past the previous run's last member
	runStart := uint32(0)
	for i, off := range offs {
		if i == 0 {
			listBytes += uvarintLen(off)
			runStart = off
			nruns++
			continue
		}
		d := off - offs[i-1] - 1
		if d > maxDelta {
			maxDelta = d
		}
		listBytes += uvarintLen(d)
		if off != offs[i-1]+1 {
			runsBytes += uvarintLen(runStart-prevEnd) + uvarintLen(offs[i-1]-runStart)
			prevEnd = offs[i-1] + 1
			runStart = off
			nruns++
		}
	}
	if len(offs) > 0 {
		runsBytes += uvarintLen(runStart-prevEnd) + uvarintLen(offs[len(offs)-1]-runStart)
	}
	runsBytes += uvarintLen(uint32(nruns))
	return bytesToWords(listBytes), BitWords(span), bytesToWords(runsBytes), packedCost(len(offs), maxDelta), nruns, maxDelta
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

// encodeChunk appends one chunk's header + payload for offs (ascending,
// chunk-relative, duplicate-free) over span ids, choosing the cheapest
// container, and records the choice in h.
func encodeChunk(buf []uint32, offs []uint32, span int, h *ContainerHist) []uint32 {
	if len(offs) == 0 {
		h.EmptyChunks++
		return append(buf, chunkEmpty<<chunkTypeShift)
	}
	list, bitmap, runs, packed, nruns, maxDelta := chunkCosts(offs, span)
	// Cheapest container wins; ties keep the pre-packed preference order
	// (list, then runs, then bitmap), so the packed form is only ever
	// chosen when it strictly shrinks a chunk and can never regress.
	best, choice := list, chunkList
	if runs < best {
		best, choice = runs, chunkRuns
	}
	if packed < best {
		best, choice = packed, chunkPacked
	}
	if bitmap < best {
		choice = chunkBitmap
	}
	switch choice {
	case chunkList:
		h.ListChunks++
		p := bytePacker{buf: append(buf, chunkList<<chunkTypeShift|uint32(list))}
		p.uvarint(uint32(len(offs)))
		for i, off := range offs {
			if i == 0 {
				p.uvarint(off)
			} else {
				p.uvarint(off - offs[i-1] - 1)
			}
		}
		return p.words()
	case chunkPacked:
		return appendPackedChunk(buf, offs, maxDelta, h)
	case chunkRuns:
		h.RunChunks++
		p := bytePacker{buf: append(buf, chunkRuns<<chunkTypeShift|uint32(runs))}
		p.uvarint(uint32(nruns))
		prevEnd, runStart := uint32(0), offs[0]
		for i := 1; i <= len(offs); i++ {
			if i < len(offs) && offs[i] == offs[i-1]+1 {
				continue
			}
			p.uvarint(runStart - prevEnd)
			p.uvarint(offs[i-1] - runStart)
			prevEnd = offs[i-1] + 1
			if i < len(offs) {
				runStart = offs[i]
			}
		}
		return p.words()
	default:
		h.BitmapChunks++
		buf = append(buf, chunkBitmap<<chunkTypeShift|uint32(bitmap))
		at := len(buf)
		buf = append(buf, make([]uint32, bitmap)...)
		for _, off := range offs {
			SetBit(buf[at:], off)
		}
		return buf
	}
}

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

// appendPackedChunk appends the header and payload of a packed chunk
// whose largest member gap (minus one) is maxDelta.
func appendPackedChunk(buf []uint32, offs []uint32, maxDelta uint32, h *ContainerHist) []uint32 {
	h.PackedChunks++
	width := uint(bits.Len32(maxDelta))
	words := packedCost(len(offs), maxDelta)
	buf = append(buf, chunkPacked<<chunkTypeShift|uint32(words))
	meta := uint32(len(offs)-1) | uint32(width)<<packedCountBits | offs[0]<<packedFirstOff
	buf = append(buf, meta)
	var cur uint32
	var filled uint
	for i := 1; i < len(offs); i++ {
		d := offs[i] - offs[i-1] - 1
		cur |= d << filled
		filled += width
		if filled >= 32 {
			buf = append(buf, cur)
			filled -= 32
			cur = 0
			if filled > 0 {
				cur = d >> (width - filled)
			}
		}
	}
	if filled > 0 {
		buf = append(buf, cur)
	}
	return buf
}

// decodePackedChunk walks a packed chunk payload, emitting each
// chunk-relative offset in ascending order.
func decodePackedChunk(payload []uint32, span int, emit func(off uint32)) {
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
	emit(off)
	mask := uint32(1)<<width - 1
	pos := uint(0)
	for i := 1; i < count; i++ {
		var d uint32
		if width > 0 {
			word := 1 + int(pos>>5)
			shift := pos & 31
			d = payload[word] >> shift
			if shift+width > 32 {
				d |= payload[word+1] << (32 - shift)
			}
			d &= mask
			pos += width
		}
		off += d + 1
		if int(off) >= span {
			panic("frontier: packed chunk offset overflows its span")
		}
		emit(off)
	}
}

// numChunks returns the chunk count covering an n-id universe.
func numChunks(n int) int { return (n + ChunkSpan - 1) / ChunkSpan }

// appendSetChunks appends the chunk stream for an ascending id set over
// [lo, lo+n).
func appendSetChunks(buf []uint32, ids []uint32, lo uint32, n int, h *ContainerHist) []uint32 {
	var scratch [ChunkSpan]uint32 // chunk-relative offsets; stays on the stack
	offs := scratch[:0]
	i := 0
	for c := 0; c < numChunks(n); c++ {
		base := lo + uint32(c*ChunkSpan)
		span := n - c*ChunkSpan
		if span > ChunkSpan {
			span = ChunkSpan
		}
		offs = offs[:0]
		for i < len(ids) && ids[i]-lo < uint32(c*ChunkSpan)+uint32(span) {
			offs = append(offs, ids[i]-base)
			i++
		}
		buf = encodeChunk(buf, offs, span, h)
	}
	if i != len(ids) {
		// An id below lo underflows past every chunk bound; one above
		// lo+n is never consumed. Either way the loop would silently
		// truncate the set — fail as loudly as the bitmap modes do.
		panic("frontier: id outside the universe in hybrid set payload")
	}
	return buf
}

// appendBitsChunks appends the chunk stream for a wire bitmap over
// [0, n). Chunk boundaries align with bitmap words (ChunkSpan/32 words
// per chunk), so each chunk's members come from a word subrange; a chunk
// the bitmap provably wins (bitmapWins) is copied, not enumerated.
func appendBitsChunks(buf []uint32, words []uint32, n int, h *ContainerHist) []uint32 {
	const wordsPerChunk = ChunkSpan / 32
	var scratch [ChunkSpan]uint32 // chunk-relative offsets; stays on the stack
	for c := 0; c < numChunks(n); c++ {
		span := n - c*ChunkSpan
		if span > ChunkSpan {
			span = ChunkSpan
		}
		wlo := c * wordsPerChunk
		whi := wlo + BitWords(span)
		if bitmapWins(words[wlo:whi]) {
			h.BitmapChunks++
			buf = append(append(buf, chunkBitmap<<chunkTypeShift|uint32(whi-wlo)), words[wlo:whi]...)
			continue
		}
		offs := scratch[:0]
		for wi, x := range words[wlo:whi] {
			for ; x != 0; x &= x - 1 {
				offs = append(offs, uint32(wi)*32+uint32(bits.TrailingZeros32(x)))
			}
		}
		buf = encodeChunk(buf, offs, span, h)
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

// decodeChunks walks a chunk stream over an n-id universe, calling emit
// with every member's universe-relative offset in ascending order.
func decodeChunks(stream []uint32, n int, emit func(off uint32)) {
	pos := 0
	for c := 0; c < numChunks(n); c++ {
		base := uint32(c * ChunkSpan)
		span := n - c*ChunkSpan
		if span > ChunkSpan {
			span = ChunkSpan
		}
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
			decodePackedChunk(payload, span, func(off uint32) { emit(base + off) })
		case chunkList:
			b := payload
			count, bp := readUvarint(b, 0)
			if int(count) > span {
				panic("frontier: hybrid list chunk overflows its span")
			}
			var off uint32
			for i := uint32(0); i < count; i++ {
				var d uint32
				d, bp = readUvarint(b, bp)
				if i == 0 {
					off = d
				} else {
					off += d + 1
				}
				if int(off) >= span {
					panic("frontier: hybrid list chunk offset overflows its span")
				}
				emit(base + off)
			}
		case chunkBitmap:
			if nw != BitWords(span) {
				panic("frontier: hybrid bitmap chunk has wrong width")
			}
			if pad := span % 32; pad != 0 && payload[nw-1]>>uint(pad) != 0 {
				panic("frontier: hybrid bitmap chunk has bits set beyond its span")
			}
			IterateBits(payload, func(off uint32) { emit(base + off) })
		case chunkRuns:
			b := payload
			nruns, bp := readUvarint(b, 0)
			pos := uint32(0)
			for r := uint32(0); r < nruns; r++ {
				var gap, runLen uint32
				gap, bp = readUvarint(b, bp)
				runLen, bp = readUvarint(b, bp)
				pos += gap
				if int(pos)+int(runLen) >= span {
					panic("frontier: hybrid runs chunk overflows its span")
				}
				for i := uint32(0); i <= runLen; i++ {
					emit(base + pos)
					pos++
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
	decodeChunks(buf[3:], n, func(off uint32) { dst = append(dst, lo+off) })
	return dst
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
	w := NewBits(n)
	decodeChunks(buf, n, func(off uint32) { SetBit(w, off) })
	return w
}
