package frontier

import (
	"fmt"
	"slices"
)

// WireMode selects how set payloads are encoded for transmission.
type WireMode int

const (
	// WireSparse always sends plain vertex-id lists (the legacy wire
	// format; callers typically skip encoding entirely).
	WireSparse WireMode = iota
	// WireDense always sends bitmap payloads.
	WireDense
	// WireAuto sends whichever form is fewer words per payload: the
	// raw id list costs nothing over the legacy format, so auto never
	// moves more words than plain lists and switches to bitmaps once a
	// payload covers more than ~1/32 of its universe.
	WireAuto
	// WireHybrid adds the chunked container codec (see hybrid.go): the
	// payload's universe is split into ChunkSpan-id chunks, each encoded
	// as the cheapest of a delta-varint list, a bitmap, or run-length
	// extents. A payload only ships the chunk stream when it beats both
	// the raw list and the whole-universe bitmap, so hybrid never moves
	// more words than WireAuto.
	WireHybrid
)

func (m WireMode) String() string {
	switch m {
	case WireSparse:
		return "sparse"
	case WireDense:
		return "dense"
	case WireAuto:
		return "auto"
	case WireHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("WireMode(%d)", int(m))
	}
}

// Wire format: a sparse payload is the raw ascending id list itself —
// zero overhead over the legacy format. A dense payload is
// [sentinel, lo, n, words...] with ceil(n/32) wire-bitmap words over
// the universe [lo, lo+n). A hybrid payload is [hybridSentinel, lo, n,
// chunks...] (see hybrid.go). The sentinels (the two largest uint32
// values) can never lead a raw list because vertex ids are strictly
// below them (the partitioners index vertices with uint32 local
// offsets), which keeps the format self-describing.
const wireSentinel = ^uint32(0)

// denseCheaper reports whether the dense encoding of a count-member
// set over an n-vertex universe is fewer wire words than the raw list.
func denseCheaper(n, count int) bool { return 3+BitWords(n) < count }

// appendDenseHeader appends the head of the dense arm, [sentinel, lo,
// n], which the bitmap words follow.
func appendDenseHeader(dst []uint32, lo uint32, n int) []uint32 {
	return append(dst, wireSentinel, lo, uint32(n))
}

// appendIDBits appends the wire bitmap of ids over the universe
// [lo, lo+n) to dst; an id outside it panics.
func appendIDBits(dst, ids []uint32, lo uint32, n int) []uint32 {
	start := len(dst)
	dst = slices.Grow(dst, BitWords(n))[:start+BitWords(n)]
	w := dst[start:]
	clear(w)
	for _, v := range ids {
		SetBit(w, v-lo)
	}
	return dst
}

// appendRaw appends the raw-list arm of the wire format to dst. It is
// always a copy: encoded payloads are owned by the transport until
// receipt (they may sit in mailboxes or ride several ring hops), and an
// aliased frontier slice the caller later mutates would corrupt them in
// flight.
func appendRaw(dst, ids []uint32) []uint32 {
	if len(ids) > 0 && ids[0] >= hybridSentinel {
		panic("frontier: vertex id collides with a wire sentinel")
	}
	return append(dst, ids...)
}

// EncodeSet encodes an ascending duplicate-free id set drawn from the
// universe [lo, lo+n). WireAuto picks the smaller of the raw list and
// the dense bitmap, WireHybrid the smallest of those two and the
// chunked container stream; ties prefer the raw list. The returned
// buffer never aliases ids — callers may mutate the set as soon as the
// call returns.
func EncodeSet(ids []uint32, lo uint32, n int, mode WireMode) []uint32 {
	return EncodeSetStats(ids, lo, n, mode, nil)
}

// EncodeSetStats is EncodeSet with container-choice accounting: when h
// is non-nil the chosen payload form (and, for hybrid payloads, every
// chunk's container) is tallied into it.
func EncodeSetStats(ids []uint32, lo uint32, n int, mode WireMode, h *ContainerHist) []uint32 {
	return AppendEncodeSet(nil, ids, lo, n, mode, h)
}

// EncodeSetBound is the capacity AppendEncodeSet may use past dst for a
// count-member set over an n-id universe under mode: the payload, or the
// hybrid chunk stream it is chosen against. A caller that reserves it
// gets the payload appended without a reallocation.
func EncodeSetBound(mode WireMode, n, count int) int {
	switch {
	case mode == WireHybrid && !rawBeatsHybrid(n, count):
		return 3 + streamBound(n, count)
	case mode == WireDense || mode == WireAuto && denseCheaper(n, count):
		return 3 + BitWords(n)
	}
	return count
}

// AppendEncodeSet appends to dst exactly what EncodeSetStats returns,
// growing dst at most once, by EncodeSetBound, and only when its spare
// capacity is short (appendEncode).
func AppendEncodeSet(dst, ids []uint32, lo uint32, n int, mode WireMode, h *ContainerHist) []uint32 {
	return appendEncode(dst, len(ids), lo, n, mode, h,
		func(dst []uint32) (out []uint32, c ContainerHist) { return appendSetChunks(dst, ids, lo, n, &c), c },
		func(dst []uint32) []uint32 { return appendRaw(dst, ids) },
		func(dst []uint32) []uint32 { return appendIDBits(dst, ids, lo, n) })
}

// AppendEncodeBits is AppendEncodeSet for the count-member set given as
// the wire bitmap w over [0, n), bit i member lo+i: the same payload and
// histogram, written from the words, ids enumerated only for a raw list.
func AppendEncodeBits(dst, w []uint32, count int, lo uint32, n int, mode WireMode, h *ContainerHist) []uint32 {
	w = w[:BitWords(n)]
	return appendEncode(dst, count, lo, n, mode, h,
		func(dst []uint32) (out []uint32, c ContainerHist) { return appendBitsChunks(dst, w, n, &c), c },
		func(dst []uint32) []uint32 { return appendBitsIDs(dst, w, lo) },
		func(dst []uint32) []uint32 { return append(dst, w...) })
}

// appendEncode is the set encoders' one body, for a count-member set
// over [lo, lo+n) whose chunk stream (with its histogram), raw list and
// bitmap words the three functions append. The payload is built in
// place: a hybrid stream that loses to the raw list or the bitmap —
// ties prefer raw, then hybrid — is overwritten by it.
func appendEncode(dst []uint32, count int, lo uint32, n int, mode WireMode, h *ContainerHist,
	stream func([]uint32) ([]uint32, ContainerHist), raw, bits func([]uint32) []uint32) []uint32 {
	head := len(dst)
	dst = slices.Grow(dst, EncodeSetBound(mode, n, count))
	if mode == WireHybrid && !rawBeatsHybrid(n, count) {
		out, chunks := stream(append(dst, hybridSentinel, lo, uint32(n)))
		if hyb := len(out) - head; hyb < count && hyb <= 3+BitWords(n) {
			if h != nil {
				chunks.HybridPayloads++
				h.Add(chunks)
			}
			return out
		}
	}
	if mode == WireDense || mode != WireSparse && denseCheaper(n, count) {
		if h != nil {
			h.DensePayloads++
		}
		return bits(appendDenseHeader(dst, lo, n))
	}
	if h != nil {
		h.RawPayloads++
	}
	return raw(dst)
}

// EncodeFrontier encodes a frontier's members exactly like
// EncodeSetStats. A dense frontier is encoded from its bitmap words
// (AppendEncodeBits) instead of materializing an id list.
func EncodeFrontier(f *Adaptive, mode WireMode, h *ContainerHist) []uint32 {
	lo, n := f.Universe()
	if !f.isDense {
		return EncodeSetStats(f.Vertices(), lo, n, mode, h)
	}
	return AppendEncodeBits(nil, Words32(f.dense.Words()), f.count, lo, n, mode, h)
}

// rawBeatsHybrid reports whether a count-member raw list is certain to
// win before any chunk stream is built: a hybrid payload is at least
// 3 + numChunks(n) words (header plus one word per chunk), so a list
// no longer than that — and no longer than the dense form — takes the
// raw arm on every tie. Skipping the stream keeps sparse levels O(1)
// per payload like WireAuto.
func rawBeatsHybrid(n, count int) bool {
	return count <= 3+numChunks(n) && !denseCheaper(n, count)
}

// Decode unpacks a payload produced by EncodeSet back into an
// ascending id slice. Raw lists pass through untouched (and aliased),
// so decoding an unencoded payload is a safe no-op. Malformed payloads
// panic with a "frontier: " message (transit corruption is the
// transport's job to catch — see internal/comm's checksummed frames).
// Every length, span and container code is validated before it is
// indexed, so no input can fault or over-allocate: a reader of input
// that is not protocol-guaranteed recovers the panic as an error.
func Decode(buf []uint32) []uint32 {
	if len(buf) == 0 || buf[0] < hybridSentinel {
		return buf
	}
	return AppendDecode(nil, buf)
}

// AppendDecode is Decode appending the ids to dst, so a caller that
// decodes one payload after another can reuse a staging buffer. It
// never aliases buf: raw lists are copied.
func AppendDecode(dst, buf []uint32) []uint32 {
	if len(buf) == 0 {
		return dst
	}
	switch buf[0] {
	case hybridSentinel:
		return appendHybridSet(dst, buf)
	case wireSentinel:
		return appendBitsIDs(dst, denseBits(buf), buf[1])
	default:
		return append(dst, buf...)
	}
}

// denseBits checks a dense payload [sentinel, lo, n, words...] and
// returns its bitmap words.
func denseBits(buf []uint32) []uint32 {
	if len(buf) < 3 {
		panic("frontier: truncated dense wire payload")
	}
	lo, n := buf[1], int(buf[2])
	if len(buf) != 3+BitWords(n) {
		panic("frontier: malformed dense wire payload")
	}
	if uint64(lo)+uint64(n) > uint64(hybridSentinel) {
		panic("frontier: dense universe exceeds the id space")
	}
	if pad := n % 32; pad != 0 && buf[len(buf)-1]>>uint(pad) != 0 {
		panic("frontier: dense wire payload has bits set beyond its universe")
	}
	return buf[3:]
}

// DecodeSetBits reads a set payload as the wire bitmap over [0, n) of a
// set drawn from [lo, lo+n), the range of the rank it is for: a dense
// payload's own words, in place, or else *scratch, cut to BitWords(n)
// words and cleared, with the raw list's or the chunk stream's members
// set. A payload naming another universe, or a raw id outside [lo, lo+n),
// is an error naming it; a malformed one panics, as in Decode.
func DecodeSetBits(buf []uint32, scratch *[]uint32, lo uint32, n int) ([]uint32, error) {
	if len(buf) > 0 && buf[0] >= hybridSentinel {
		if len(buf) < 3 {
			panic("frontier: truncated wire payload")
		}
		if buf[1] != lo || int(buf[2]) != n {
			return nil, fmt.Errorf("set over [%d, %d) outside its owner's range [%d, %d)", buf[1], uint64(buf[1])+uint64(buf[2]), lo, uint64(lo)+uint64(n))
		}
		if buf[0] == wireSentinel {
			return denseBits(buf), nil
		}
	}
	set := slices.Grow((*scratch)[:0], BitWords(n))[:BitWords(n)]
	*scratch = set
	clear(set)
	if len(buf) > 0 && buf[0] == hybridSentinel {
		decodeChunks(buf[3:], n, &members{bm: set})
		return set, nil
	}
	for _, v := range buf {
		if v-lo >= uint32(n) {
			return nil, fmt.Errorf("id %d outside its owner's range [%d, %d)", v, lo, uint64(lo)+uint64(n))
		}
		SetBit(set, v-lo)
	}
	return set, nil
}
