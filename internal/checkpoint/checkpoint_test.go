package checkpoint

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestEncDecRoundTrip(t *testing.T) {
	enc := &Enc{}
	enc.U32(7)
	enc.U64(1 << 40)
	enc.Int(123456789)
	enc.F64(3.14159)
	enc.Bool(true)
	enc.Bool(false)
	enc.Words([]uint32{9, 8, 7})
	enc.Words(nil)

	dec := NewDec(enc.Payload())
	if got := dec.U32(); got != 7 {
		t.Errorf("U32 = %d", got)
	}
	if got := dec.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := dec.Int(); got != 123456789 {
		t.Errorf("Int = %d", got)
	}
	if got := dec.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if !dec.Bool() || dec.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := dec.Words(); !reflect.DeepEqual(got, []uint32{9, 8, 7}) {
		t.Errorf("Words = %v", got)
	}
	if got := dec.Words(); len(got) != 0 {
		t.Errorf("empty Words = %v", got)
	}
	dec.Done() // must not panic: fully consumed
}

func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", label)
		}
	}()
	fn()
}

func TestDecPanicsOnTruncation(t *testing.T) {
	enc := &Enc{}
	enc.U64(42)
	enc.Words([]uint32{1, 2, 3})
	full := enc.Payload()

	mustPanic(t, "U64 short", func() { NewDec(full[:1]).U64() })
	mustPanic(t, "Words short", func() {
		d := NewDec(full[:4]) // length prefix says 3, only 1 word left
		d.U64()
		d.Words()
	})
	mustPanic(t, "trailing words", func() {
		d := NewDec(full)
		d.U64()
		d.Words()
		d.U32() // past the end
	})
	mustPanic(t, "Done with leftovers", func() {
		d := NewDec(full)
		d.U64()
		d.Done()
	})
	mustPanic(t, "negative Int", func() {
		e := &Enc{}
		e.U64(math.MaxUint64) // Int reads U64; implausible value must panic
		NewDec(e.Payload()).Int()
	})
}

func TestEncIntRejectsNegative(t *testing.T) {
	mustPanic(t, "negative Int encode", func() { (&Enc{}).Int(-1) })
}

func TestPlanPutAndSnapshot(t *testing.T) {
	p := NewPlan(3)
	if !p.Enabled() {
		t.Fatal("plan not enabled")
	}
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Fatal("nil plan enabled")
	}
	p.Put("bfs", 3, 2, 1, 77, []uint32{10, 11})
	p.Put("bfs", 3, 2, 0, 77, []uint32{20})
	s := p.Snapshot()
	if s == nil || s.Kind != "bfs" || s.P != 2 || s.Fingerprint != 77 {
		t.Fatalf("snapshot = %+v", s)
	}
	if !reflect.DeepEqual(s.Blobs[0], []uint32{20}) || !reflect.DeepEqual(s.Blobs[1], []uint32{10, 11}) {
		t.Fatalf("blobs = %v", s.Blobs)
	}

	mustPanic(t, "mismatched fingerprint", func() { p.Put("bfs", 3, 2, 0, 99, nil) })
	mustPanic(t, "mismatched kind", func() { p.Put("sssp", 3, 2, 0, 77, nil) })
	mustPanic(t, "rank out of range", func() { p.Put("bfs", 3, 2, 5, 77, nil) })
}

func TestSnapshotCheck(t *testing.T) {
	s := &Snapshot{Kind: "bfs", At: 2, P: 4, Fingerprint: 123,
		Blobs: [][]uint32{{0}, {0}, {0}, {0}}}
	if err := s.Check("bfs", 4, 123); err != nil {
		t.Errorf("valid check failed: %v", err)
	}
	for _, tc := range []struct {
		kind string
		p    int
		fp   uint64
	}{{"sssp", 4, 123}, {"bfs", 2, 123}, {"bfs", 4, 999}} {
		if err := s.Check(tc.kind, tc.p, tc.fp); err == nil {
			t.Errorf("Check(%q,%d,%d) accepted", tc.kind, tc.p, tc.fp)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := Fingerprint(1, 2, 3)
	if a != Fingerprint(1, 2, 3) {
		t.Error("fingerprint not deterministic")
	}
	for _, other := range [][]uint64{{1, 2}, {1, 2, 4}, {3, 2, 1}, {1, 2, 3, 0}} {
		if Fingerprint(other...) == a {
			t.Errorf("collision with %v", other)
		}
	}
}

func TestWriteReadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	want := &Snapshot{
		Kind: "sssp", At: 5, P: 3, Fingerprint: 0xdeadbeefcafe,
		Blobs: [][]uint32{{1, 2, 3}, {}, {4}},
	}
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || got.At != want.At || got.P != want.P || got.Fingerprint != want.Fingerprint {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Blobs) != 3 || !reflect.DeepEqual(got.Blobs[0], want.Blobs[0]) ||
		len(got.Blobs[1]) != 0 || !reflect.DeepEqual(got.Blobs[2], want.Blobs[2]) {
		t.Fatalf("blobs mismatch: %v", got.Blobs)
	}
}

// TestReadFileCorruption: every way a checkpoint file can be damaged —
// truncated mid-write, a wrong or an older version's magic, trailing
// garbage — must come back as an error, never a panic.
func TestReadFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	want := &Snapshot{Kind: "bfs", At: 1, P: 2, Fingerprint: 42, Blobs: [][]uint32{{1}, {2, 3}}}
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(raw); cut += 3 {
		p := filepath.Join(dir, "trunc.ckpt")
		if err := os.WriteFile(p, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(p); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// A foreign header, and the previous format versions': version 1's
	// transport blobs have another layout, version 2's sent-neighbors
	// cache another width.
	foreign := append([]byte(nil), raw...)
	foreign[0] ^= 0xff
	v1 := append([]byte("BGLCKPT1"), raw[8:]...)
	v2 := append([]byte("BGLCKPT2"), raw[8:]...)
	p := filepath.Join(dir, "magic.ckpt")
	for _, bad := range [][]byte{foreign, v1, v2} {
		os.WriteFile(p, bad, 0o644)
		if _, err := ReadFile(p); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("magic %q: err = %v", bad[:8], err)
		}
	}

	p = filepath.Join(dir, "trailing.ckpt")
	os.WriteFile(p, append(append([]byte(nil), raw...), 0xAA), 0o644)
	if _, err := ReadFile(p); err == nil {
		t.Error("trailing garbage accepted")
	}

	if _, err := ReadFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("missing file accepted")
	}
}
