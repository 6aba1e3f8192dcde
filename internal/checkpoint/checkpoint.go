// Package checkpoint provides epoch checkpoint/restart for the
// distributed engines: a run can halt at a chosen BFS level or
// Δ-stepping epoch, snapshot every rank's engine and transport state as
// opaque word blobs (serialized with the same word-stream discipline as
// the wire codecs), and a later run can restore the snapshot and
// continue to a byte-identical Result — same distances, same traffic
// counters, same simulated clocks.
//
// The package is engine-agnostic: engines decide what goes in a blob
// (frontier sets, distance arrays, bucket indexes, per-level stats,
// comm.State) and deposit one blob per rank into a Plan at the halt
// point; the Snapshot round-trips through a small self-describing
// binary file format. A Fingerprint of the workload identity guards
// against restoring a snapshot into a different world.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// Plan asks a run to halt and snapshot at an interior point. At is the
// BFS level / Δ-stepping epoch ordinal to stop at (the snapshot is
// taken at the top of that level's loop iteration, before any of its
// work); At < 0 disables checkpointing. The zero value is disabled.
type Plan struct {
	At int

	mu   sync.Mutex
	snap *Snapshot
}

// NewPlan returns a plan that halts at level/epoch at.
func NewPlan(at int) *Plan { return &Plan{At: at} }

// Enabled reports whether the plan asks for a checkpoint at all.
func (p *Plan) Enabled() bool { return p != nil && p.At >= 0 }

// Put deposits one rank's state blob. Every rank of a halting run
// calls it concurrently; the first caller fixes the snapshot shape and
// the rest must agree.
func (p *Plan) Put(kind string, at, ranks, rank int, fingerprint uint64, blob []uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.snap == nil {
		p.snap = &Snapshot{Kind: kind, At: at, P: ranks, Fingerprint: fingerprint, Blobs: make([][]uint32, ranks)}
	}
	s := p.snap
	if s.Kind != kind || s.At != at || s.P != ranks || s.Fingerprint != fingerprint {
		panic(fmt.Sprintf("checkpoint: rank %d deposited a mismatched blob (%s@%d P=%d) into snapshot (%s@%d P=%d)",
			rank, kind, at, ranks, s.Kind, s.At, s.P))
	}
	if rank < 0 || rank >= ranks || s.Blobs[rank] != nil {
		panic(fmt.Sprintf("checkpoint: bad or duplicate blob for rank %d of %d", rank, ranks))
	}
	s.Blobs[rank] = blob
}

// Snapshot returns the deposited snapshot (nil if the run finished
// before reaching the halt point).
func (p *Plan) Snapshot() *Snapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snap
}

// Snapshot is a halted run: per-rank opaque state blobs plus enough
// identity to refuse restoring into the wrong world.
type Snapshot struct {
	Kind        string // engine family: "bfs" or "sssp"
	At          int    // level / epoch ordinal the run halted at
	P           int    // world size
	Fingerprint uint64 // workload identity hash (graph, source, options)
	Blobs       [][]uint32
}

// Check validates a snapshot against the restoring run's identity.
func (s *Snapshot) Check(kind string, ranks int, fingerprint uint64) error {
	if s == nil {
		return fmt.Errorf("checkpoint: no snapshot to restore")
	}
	if s.Kind != kind {
		return fmt.Errorf("checkpoint: snapshot is a %s run, restoring into %s", s.Kind, kind)
	}
	if s.P != ranks {
		return fmt.Errorf("checkpoint: snapshot has %d ranks, world has %d", s.P, ranks)
	}
	if s.Fingerprint != fingerprint {
		return fmt.Errorf("checkpoint: snapshot fingerprint %#x does not match workload %#x (different graph, source, or options)", s.Fingerprint, fingerprint)
	}
	if len(s.Blobs) != s.P {
		return fmt.Errorf("checkpoint: snapshot has %d blobs for %d ranks", len(s.Blobs), s.P)
	}
	for r, b := range s.Blobs {
		if b == nil {
			return fmt.Errorf("checkpoint: snapshot is missing rank %d's blob", r)
		}
	}
	return nil
}

// Fingerprint chains the given identity words through a splitmix64-style
// hash; engines feed it the workload parameters that must match between
// the checkpointing and the restoring run.
func Fingerprint(parts ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, p := range parts {
		h ^= p
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Enc builds a state blob as a word stream — the same uint32-word
// discipline the wire codecs use, so blobs travel and store like any
// other payload.
type Enc struct {
	w []uint32
}

// U32 appends one word.
func (e *Enc) U32(v uint32) { e.w = append(e.w, v) }

// U64 appends a 64-bit value as two words (low, high).
func (e *Enc) U64(v uint64) { e.w = append(e.w, uint32(v), uint32(v>>32)) }

// Int appends a non-negative int.
func (e *Enc) Int(v int) {
	if v < 0 {
		panic(fmt.Sprintf("checkpoint: encoding negative int %d", v))
	}
	e.U64(uint64(v))
}

// F64 appends a float64 bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a boolean word.
func (e *Enc) Bool(v bool) {
	if v {
		e.U32(1)
	} else {
		e.U32(0)
	}
}

// Words appends a length-prefixed word slice.
func (e *Enc) Words(w []uint32) {
	e.Int(len(w))
	e.w = append(e.w, w...)
}

// Payload returns the accumulated blob.
func (e *Enc) Payload() []uint32 { return e.w }

// Dec reads a blob back. Decoding errors (truncation, corruption)
// panic with a descriptive message: a blob that fails to decode is a
// programming error or a corrupted file, and the engines run decoding
// inside World.Run, which converts the panic into a clean error.
type Dec struct {
	w []uint32
	i int
}

// NewDec wraps a blob for decoding.
func NewDec(w []uint32) *Dec { return &Dec{w: w} }

func (d *Dec) need(n int) {
	if d.i+n > len(d.w) {
		panic(fmt.Sprintf("checkpoint: truncated blob (want %d words at offset %d of %d)", n, d.i, len(d.w)))
	}
}

// U32 reads one word.
func (d *Dec) U32() uint32 {
	d.need(1)
	v := d.w[d.i]
	d.i++
	return v
}

// U64 reads a 64-bit value.
func (d *Dec) U64() uint64 {
	d.need(2)
	v := uint64(d.w[d.i]) | uint64(d.w[d.i+1])<<32
	d.i += 2
	return v
}

// Int reads a non-negative int.
func (d *Dec) Int() int {
	v := d.U64()
	if v > math.MaxInt32*2 {
		panic(fmt.Sprintf("checkpoint: implausible int %d in blob", v))
	}
	return int(v)
}

// F64 reads a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a boolean word.
func (d *Dec) Bool() bool { return d.U32() != 0 }

// Words reads a length-prefixed word slice.
func (d *Dec) Words() []uint32 {
	n := d.Int()
	d.need(n)
	w := append([]uint32(nil), d.w[d.i:d.i+n]...)
	d.i += n
	return w
}

// Done asserts the blob was consumed exactly.
func (d *Dec) Done() {
	if d.i != len(d.w) {
		panic(fmt.Sprintf("checkpoint: %d trailing words in blob", len(d.w)-d.i))
	}
}

// File format: magic, then the snapshot header, then the blobs, all
// little-endian. Lengths are explicit so ReadFile can reject truncated
// or corrupted files with errors rather than panics. The magic's last
// byte is the format version: version 2 carries the transport state as
// a per-peer traffic ledger, which a version-1 blob would be misread as;
// version 3 a BFS sent-neighbors cache indexed by row position, a
// version-2 cache of another width.
var fileMagic = [8]byte{'B', 'G', 'L', 'C', 'K', 'P', 'T', '3'}

// WriteFile serializes a snapshot to path (atomically: temp file +
// rename).
func WriteFile(path string, s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("checkpoint: nil snapshot")
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := func(v any) {
		if err == nil {
			err = binary.Write(f, binary.LittleEndian, v)
		}
	}
	w(fileMagic[:])
	w(uint32(len(s.Kind)))
	w([]byte(s.Kind))
	w(int64(s.At))
	w(int64(s.P))
	w(s.Fingerprint)
	w(uint32(len(s.Blobs)))
	for _, b := range s.Blobs {
		w(uint32(len(b)))
		w(b)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ReadFile deserializes a snapshot, validating structure as it goes —
// a truncated or corrupted file yields a descriptive error.
func ReadFile(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &byteReader{b: raw}
	var magic [8]byte
	if err := r.read(magic[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("checkpoint: %s is not a checkpoint file (bad magic)", path)
	}
	s := &Snapshot{}
	kindLen, err := r.u32()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	if kindLen > 64 {
		return nil, fmt.Errorf("checkpoint: %s: implausible kind length %d", path, kindLen)
	}
	kind := make([]byte, kindLen)
	if err := r.read(kind); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	s.Kind = string(kind)
	at, err1 := r.i64()
	p, err2 := r.i64()
	fp, err3 := r.u64()
	nblobs, err4 := r.u32()
	for _, e := range []error{err1, err2, err3, err4} {
		if e != nil {
			return nil, fmt.Errorf("checkpoint: %s: %w", path, e)
		}
	}
	s.At, s.P, s.Fingerprint = int(at), int(p), fp
	if s.P <= 0 || int(nblobs) != s.P {
		return nil, fmt.Errorf("checkpoint: %s: %d blobs for %d ranks", path, nblobs, s.P)
	}
	s.Blobs = make([][]uint32, nblobs)
	for i := range s.Blobs {
		n, err := r.u32()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %s: blob %d: %w", path, i, err)
		}
		if uint64(n)*4 > uint64(len(r.b)-r.i) {
			return nil, fmt.Errorf("checkpoint: %s: blob %d claims %d words but only %d bytes remain", path, i, n, len(r.b)-r.i)
		}
		blob := make([]uint32, n)
		for j := range blob {
			v, _ := r.u32()
			blob[j] = v
		}
		s.Blobs[i] = blob
	}
	if r.i != len(r.b) {
		return nil, fmt.Errorf("checkpoint: %s: %d trailing bytes", path, len(r.b)-r.i)
	}
	return s, nil
}

// byteReader is a minimal little-endian cursor with explicit errors.
type byteReader struct {
	b []byte
	i int
}

func (r *byteReader) read(dst []byte) error {
	if r.i+len(dst) > len(r.b) {
		return io.ErrUnexpectedEOF
	}
	copy(dst, r.b[r.i:])
	r.i += len(dst)
	return nil
}

func (r *byteReader) u32() (uint32, error) {
	var buf [4]byte
	if err := r.read(buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func (r *byteReader) u64() (uint64, error) {
	var buf [8]byte
	if err := r.read(buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func (r *byteReader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}
