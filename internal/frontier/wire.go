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
// capacity is short. The payload is built in place: a hybrid stream that
// loses to the raw list or the bitmap is overwritten by it.
func AppendEncodeSet(dst, ids []uint32, lo uint32, n int, mode WireMode, h *ContainerHist) []uint32 {
	head := len(dst)
	dst = slices.Grow(dst, EncodeSetBound(mode, n, len(ids)))
	raw := func(dst []uint32) []uint32 { return appendRaw(dst, ids) }
	switch {
	case mode == WireHybrid && !rawBeatsHybrid(n, len(ids)):
		var chunks ContainerHist
		dst = appendSetChunks(append(dst, hybridSentinel, lo, uint32(n)), ids, lo, n, &chunks)
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
// EncodeSetStats. A dense frontier is encoded word for word from its
// bitmap instead of materializing an id list and rebuilding the bitmap.
func EncodeFrontier(f *Adaptive, mode WireMode, h *ContainerHist) []uint32 {
	lo, n := f.Universe()
	if !f.isDense {
		return EncodeSetStats(f.Vertices(), lo, n, mode, h)
	}
	switch {
	case mode == WireHybrid && !rawBeatsHybrid(n, f.count):
		w := f.Bits()
		var chunks ContainerHist
		hyb := append(make([]uint32, 0, 3+streamBound(n, f.count)), hybridSentinel, lo, uint32(n))
		hyb = appendBitsChunks(hyb, w, n, &chunks)
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

// rawBeatsHybrid reports whether a count-member raw list is certain to
// win before any chunk stream is built: a hybrid payload is at least
// 3 + numChunks(n) words (header plus one word per chunk), so a list
// no longer than that — and no longer than the dense form — takes the
// raw arm on every tie. Skipping the stream keeps sparse levels O(1)
// per payload like WireAuto.
func rawBeatsHybrid(n, count int) bool {
	return count <= 3+numChunks(n) && !denseCheaper(n, count)
}

// pickHybridForm settles a payload whose hybrid form — header and chunk
// stream — was built at dst[head:]: it keeps it, or rewrites the payload
// in its place as the raw list (raw appends it) or the dense bitmap
// (bits appends its words) when that is no longer, preferring raw and
// then hybrid on ties. Either rewrite is no longer than the hybrid form,
// so it fits the memory the stream was built in.
func pickHybridForm(dst []uint32, head int, chunks ContainerHist, rawLen int, lo uint32, n int, h *ContainerHist, raw, bits func(dst []uint32) []uint32) []uint32 {
	hyb, dense := len(dst)-head, 3+BitWords(n)
	switch {
	case rawLen <= hyb && rawLen <= dense:
		if h != nil {
			h.RawPayloads++
		}
		return raw(dst[:head])
	case hyb <= dense:
		if h != nil {
			chunks.HybridPayloads++
			h.Add(chunks)
		}
		return dst
	default:
		if h != nil {
			h.DensePayloads++
		}
		return bits(appendDenseHeader(dst[:head], lo, n))
	}
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
		return appendBitsIDs(dst, buf[3:], lo)
	default:
		return append(dst, buf...)
	}
}
