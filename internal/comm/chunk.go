package comm

// SendChunked transmits data to dst in fixed-length chunks of at most
// maxWords uint32 words each, preceded by a one-word chunk-count
// header. This implements the fixed-length message-buffer discipline of
// §3.1: the paper derives that expected message lengths are O(n/P) and
// then caps physical buffers at a fixed size independent of P and k,
// splitting longer logical messages.
//
// maxWords <= 0 disables chunking and sends in one piece with no
// header; the receiver must use the same maxWords.
//
// Unlike the raw Send, a nil data slice is legal here and means an
// empty logical message: SendChunked frames a logical buffer, and the
// collectives routinely hand it absent per-destination bins.
func (c *Comm) SendChunked(dst, tag int, data []uint32, maxWords int) {
	if data == nil {
		data = emptyPayload
	}
	if maxWords <= 0 {
		c.Send(dst, tag, data)
		return
	}
	sendChunks(func(piece []uint32) { c.Send(dst, tag, piece) }, data, maxWords)
}

// emptyPayload is the canonical zero-length wire payload, substituted
// for nil logical buffers at the chunked-send boundaries.
var emptyPayload = []uint32{}

// RecvChunked receives a logical message sent with SendChunked using
// the same maxWords, reassembling the chunks into one slice.
func (c *Comm) RecvChunked(src, tag int, maxWords int) []uint32 {
	if maxWords <= 0 {
		return c.Recv(src, tag)
	}
	return recvChunks(func() []uint32 { return c.Recv(src, tag) }, maxWords)
}

// sendChunks splits data into the chunk-count header plus fixed-size
// pieces, emitting each through send — the one copy of the framing the
// blocking and offloaded senders share (the receivers must agree on it
// whichever pair is in use).
func sendChunks(send func(piece []uint32), data []uint32, maxWords int) {
	nchunks := (len(data) + maxWords - 1) / maxWords
	send(chunkHeader(nchunks))
	for i := 0; i < nchunks; i++ {
		lo := i * maxWords
		hi := lo + maxWords
		if hi > len(data) {
			hi = len(data)
		}
		send(data[lo:hi])
	}
}

// smallHeaders are the chunk-count headers of logical messages of up to
// three chunks — nearly every message under the default 16Ki-word
// buffers — shared by all senders: a payload handed to the transport is
// read-only from then on, so the header needs no copy of its own.
var smallHeaders = [...][1]uint32{{0}, {1}, {2}, {3}}

func chunkHeader(nchunks int) []uint32 {
	if nchunks < len(smallHeaders) {
		return smallHeaders[nchunks][:]
	}
	return []uint32{uint32(nchunks)}
}

// recvChunks inverts sendChunks, drawing each message through recv.
func recvChunks(recv func() []uint32, maxWords int) []uint32 {
	header := recv()
	if len(header) != 1 {
		panic("comm: malformed chunk header")
	}
	nchunks := int(header[0])
	if nchunks == 0 {
		return nil
	}
	if nchunks == 1 {
		return recv()
	}
	out := make([]uint32, 0, nchunks*maxWords)
	for i := 0; i < nchunks; i++ {
		out = append(out, recv()...)
	}
	return out
}
