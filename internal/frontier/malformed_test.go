package frontier

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/localindex"
)

// mangleCases builds a spread of deliberately malformed wire payloads.
func mangleCases() map[string][]uint32 {
	// A long run in a wide universe guarantees the chunk stream beats
	// both the raw list and the dense bitmap.
	valid := EncodeSet(seqIDs(0, 1000), 0, 100000, WireHybrid)
	if valid[0] != hybridSentinel {
		panic("test fixture did not encode as a hybrid payload")
	}
	dense := EncodeSet(seqIDs(0, 400), 0, 500, WireDense)
	return map[string][]uint32{
		"dense too short":      {wireSentinel, 0},
		"dense wrong width":    {wireSentinel, 0, 100, 1},
		"hybrid too short":     {hybridSentinel, 0},
		"hybrid no chunks":     {hybridSentinel, 0, 5000},
		"hybrid truncated":     valid[:len(valid)-1],
		"hybrid huge n":        {hybridSentinel, 0, ^uint32(0) - 2, 0},
		"dense truncated":      dense[:len(dense)-2],
		"packed forged meta":   {hybridSentinel, 0, 4096, chunkPacked<<chunkTypeShift | 1, 4095 | 15<<packedCountBits},
		"unknown container":    {hybridSentinel, 0, 100, 7<<chunkTypeShift | 0},
		"list overflow":        {hybridSentinel, 0, 8, chunkList<<chunkTypeShift | 1, 0x00_00_09_09},
		"trailing chunk words": append(append([]uint32{}, valid...), 0),
	}
}

func seqIDs(lo uint32, n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = lo + uint32(i)
	}
	return ids
}

// decodeChecked is Decode for payloads of uncertain provenance: the
// decode paths validate every length, span and container code before
// indexing, so a malformed payload panics with a frontier message,
// which comes back here as an error.
func decodeChecked(buf []uint32) (ids []uint32, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return Decode(buf), nil
}

// TestDecodeCheckedRejectsMalformed: every mangled payload must be
// rejected with a frontier panic — not a runtime fault, not a silent
// wrong answer.
func TestDecodeCheckedRejectsMalformed(t *testing.T) {
	for name, buf := range mangleCases() {
		ids, err := decodeChecked(buf)
		if err == nil {
			t.Errorf("%s: accepted, decoded %d ids", name, len(ids))
			continue
		}
		if !strings.HasPrefix(err.Error(), "frontier: ") {
			t.Errorf("%s: error %q is not a frontier validation failure", name, err)
		}
	}
}

// TestDecodeCheckedAcceptsValid: the checked path is Decode on the
// happy path — same ids, no error, for every wire mode.
func TestDecodeCheckedAcceptsValid(t *testing.T) {
	ids := []uint32{3, 4, 5, 64, 900, 901, 902, 4097}
	for _, mode := range []WireMode{WireSparse, WireDense, WireAuto, WireHybrid} {
		buf := EncodeSet(ids, 0, 5000, mode)
		got, err := decodeChecked(buf)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(got) != len(ids) {
			t.Fatalf("mode %v: %d ids, want %d", mode, len(got), len(ids))
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("mode %v: id[%d]=%d want %d", mode, i, got[i], ids[i])
			}
		}
	}
}

// FuzzDecodeMalformed hammers the decoder with arbitrary word
// sequences: Decode must only ever panic with its own validation
// messages (a runtime fault like index out of range fails the fuzz), never allocate proportionally to a forged universe,
// and on success return only in-universe ids for self-describing
// payloads.
func FuzzDecodeMalformed(f *testing.F) {
	// Seed with valid encodings of each form plus light mutations.
	for _, ids := range [][]uint32{{}, {0}, seqIDs(10, 300), {1, 2, 3, 4000, 4001}} {
		sorted, _ := localindex.SortSet(append([]uint32(nil), ids...))
		for _, mode := range []WireMode{WireDense, WireAuto, WireHybrid} {
			f.Add(wordsToBytes(EncodeSet(sorted, 0, 4200, mode)))
		}
	}
	for name, buf := range mangleCases() {
		_ = name
		f.Add(wordsToBytes(buf))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		buf := bytesToWordsSlice(raw)
		ids, err := decodeChecked(buf)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "frontier: ") {
				t.Fatalf("decode failed outside its validation: %v", err)
			}
			return // rejected cleanly — the property under test
		}
		if len(buf) > 0 && (buf[0] == wireSentinel || buf[0] == hybridSentinel) {
			lo, hi := uint64(buf[1]), uint64(buf[1])+uint64(buf[2])
			for _, id := range ids {
				if uint64(id) < lo || uint64(id) >= hi {
					t.Fatalf("decoded id %d outside universe [%d,%d)", id, lo, hi)
				}
			}
		}
	})
}

func wordsToBytes(w []uint32) []byte {
	b := make([]byte, 4*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	return b
}

func bytesToWordsSlice(b []byte) []uint32 {
	w := make([]uint32, len(b)/4)
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return w
}
