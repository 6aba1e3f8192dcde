package comm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
)

// checkLedger asserts the clock-ledger identity on every rank.
func checkLedger(t *testing.T, comms []*Comm) {
	t.Helper()
	for _, c := range comms {
		want := c.CompTime() + c.CommTime() - c.OverlapTime()
		if math.Abs(c.Clock()-want) > 1e-12 {
			t.Fatalf("rank %d ledger broken: clock %v != comp %v + comm %v - overlap %v",
				c.Rank(), c.Clock(), c.CompTime(), c.CommTime(), c.OverlapTime())
		}
	}
}

// TestRetryClockAccountingPinned pins the recovery protocol's exact
// cost: a dropped-then-retried message costs precisely the NACK timeout
// plus the first backoff plus the retransmitted copy's wire time
// (transit + receive overhead) beyond the fault-free receive, per rank,
// with the ledger identity intact.
func TestRetryClockAccountingPinned(t *testing.T) {
	payload := []uint32{1, 2, 3, 4}
	run := func(plan *fault.Plan) []*Comm {
		w := newTestWorld(t, 2)
		w.SetFault(plan)
		comms, err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 5, payload)
			} else {
				got := c.Recv(0, 5)
				if len(got) != 4 || got[3] != 4 {
					panic("payload corrupted through recovery")
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return comms
	}

	clean := run(nil)
	// Drop every first copy; CleanAttempt=1 forces the single
	// retransmission clean, so recovery costs exactly one round.
	plan := &fault.Plan{Seed: 1, PDrop: 1, CleanAttempt: 1}
	faulted := run(plan)

	checkLedger(t, clean)
	checkLedger(t, faulted)

	w := newTestWorld(t, 2)
	model := w.Model()
	bytes := messageHeaderBytes + 4*len(payload)
	transit := model.Transit(w.Mapping().Hops(0, 1), bytes)
	wantExtra := plan.Timeout() + plan.Backoff(1) + transit + model.RecvOverhead

	gotExtra := faulted[1].Clock() - clean[1].Clock()
	if math.Abs(gotExtra-wantExtra) > 1e-12 {
		t.Fatalf("retry cost: got extra %v, want timeout+backoff+resend = %v", gotExtra, wantExtra)
	}
	// The whole recovery is communication time; compute is untouched.
	if faulted[1].CompTime() != clean[1].CompTime() {
		t.Fatalf("recovery leaked into compute time: %v vs %v", faulted[1].CompTime(), clean[1].CompTime())
	}
	commExtra := faulted[1].CommTime() - clean[1].CommTime()
	if math.Abs(commExtra-wantExtra) > 1e-12 {
		t.Fatalf("comm time extra %v, want %v", commExtra, wantExtra)
	}
	// The sender's ledger is untouched: recovery is modeled at the
	// receiver, and the logical traffic counters count the message once.
	if faulted[0].Clock() != clean[0].Clock() {
		t.Fatalf("sender clock moved under receiver-side recovery: %v vs %v", faulted[0].Clock(), clean[0].Clock())
	}
	for i := range clean {
		if faulted[i].BytesRecv() != clean[i].BytesRecv() || faulted[i].MsgsRecv() != clean[i].MsgsRecv() ||
			faulted[i].BytesSent() != clean[i].BytesSent() || faulted[i].MsgsSent() != clean[i].MsgsSent() ||
			faulted[i].HopBytes() != clean[i].HopBytes() {
			t.Fatalf("rank %d traffic counters differ between clean and faulted runs", i)
		}
	}
	st := faulted[1].FaultStats()
	if st.Retries != 1 || st.RetrySeconds <= 0 {
		t.Fatalf("retry counters: %+v", st)
	}
	if MergeFaultStats(faulted).InjDrop != 1 {
		t.Fatalf("injection counters: %+v", MergeFaultStats(faulted))
	}
}

func TestCorruptionRecovered(t *testing.T) {
	w := newTestWorld(t, 2)
	w.SetFault(&fault.Plan{Seed: 2, PCorrupt: 1, CleanAttempt: 1})
	payload := []uint32{0xdead, 0xbeef}
	comms, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, payload)
		} else {
			got := c.Recv(0, 1)
			if len(got) != 2 || got[0] != 0xdead || got[1] != 0xbeef {
				panic("corrupted payload delivered")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, comms)
	st := comms[1].FaultStats()
	if st.ChecksumFails != 1 || st.Retries != 1 {
		t.Fatalf("corruption counters: %+v", st)
	}
	// The sender's wire image was garbled, but the caller's slice —
	// handed over by reference — must not be.
	if payload[0] != 0xdead || payload[1] != 0xbeef {
		t.Fatal("corruption mutated the sender's payload slice")
	}
}

func TestEmptyPayloadCorruptionRecovered(t *testing.T) {
	// Zero-length messages have no payload bits to flip; corruption
	// garbles the envelope checksum instead and recovery still works.
	w := newTestWorld(t, 2)
	w.SetFault(&fault.Plan{Seed: 3, PCorrupt: 1, CleanAttempt: 1})
	comms, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []uint32{})
		} else {
			if got := c.Recv(0, 1); len(got) != 0 {
				panic("ghost payload")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if comms[1].FaultStats().ChecksumFails != 1 {
		t.Fatalf("counters: %+v", comms[1].FaultStats())
	}
}

func TestDuplicateDiscarded(t *testing.T) {
	w := newTestWorld(t, 2)
	w.SetFault(&fault.Plan{Seed: 4, PDuplicate: 1})
	comms, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []uint32{11})
			c.Send(1, 2, []uint32{22})
		} else {
			if got := c.Recv(0, 1); got[0] != 11 {
				panic("wrong first payload")
			}
			if got := c.Recv(0, 2); got[0] != 22 {
				panic("duplicate leaked into the stream")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, comms)
	st := comms[1].FaultStats()
	if st.DupsDiscarded != 2 {
		t.Fatalf("dup counters: %+v", st)
	}
	// Each logical message is counted once despite two copies on the wire.
	if comms[1].MsgsRecv() != 2 {
		t.Fatalf("msgsRecv = %d, want 2", comms[1].MsgsRecv())
	}
}

func TestDelayArrivesLateButIntact(t *testing.T) {
	run := func(plan *fault.Plan) []*Comm {
		w := newTestWorld(t, 2)
		w.SetFault(plan)
		comms, err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 1, []uint32{5})
			} else {
				c.Recv(0, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return comms
	}
	clean := run(nil)
	faulted := run(&fault.Plan{Seed: 5, PDelay: 1, MaxDelay: 1e-4})
	checkLedger(t, faulted)
	if faulted[1].Clock() <= clean[1].Clock() {
		t.Fatalf("delayed copy did not arrive later: %v vs %v", faulted[1].Clock(), clean[1].Clock())
	}
	if faulted[1].FaultStats().Retries != 0 {
		t.Fatal("a delayed copy must not trigger retransmission")
	}
}

func TestOutageHoldsDeparture(t *testing.T) {
	until := 1e-3
	w := newTestWorld(t, 2)
	w.SetFault(&fault.Plan{Seed: 6, Outages: []fault.Outage{{Src: -1, Dst: 1, From: 0, Until: until}}})
	comms, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []uint32{5})
		} else {
			c.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, comms)
	if comms[1].Clock() < until {
		t.Fatalf("receiver finished at %v, before the outage lifted at %v", comms[1].Clock(), until)
	}
	if comms[1].FaultStats().Retries != 0 {
		t.Fatal("an outage hold must not trigger retransmission")
	}
}

func TestStragglerScalesCompute(t *testing.T) {
	w := newTestWorld(t, 2)
	w.SetFault(&fault.Plan{Seed: 7, Stragglers: map[int]float64{1: 2}})
	comms, err := w.Run(func(c *Comm) {
		c.Compute(1e-3)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, comms)
	if comms[0].CompTime() != 1e-3 {
		t.Fatalf("rank 0 compute = %v, want 1e-3", comms[0].CompTime())
	}
	if comms[1].CompTime() != 2e-3 {
		t.Fatalf("straggler compute = %v, want 2e-3", comms[1].CompTime())
	}
}

func TestOffloadedRecoveryKeepsLedger(t *testing.T) {
	// The nonblocking path: a dropped transfer forfeits its overlap
	// window and serializes the recovery, but the ledger still balances
	// and the payload survives.
	w := newTestWorld(t, 2)
	w.SetFault(&fault.Plan{Seed: 8, PDrop: 1})
	comms, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend(1, 1, []uint32{1, 2, 3})
		} else {
			r := c.Irecv(0, 1)
			c.Compute(5e-6)
			got := r.Wait()
			if len(got) != 3 || got[2] != 3 {
				panic("payload corrupted through offloaded recovery")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, comms)
	if comms[1].FaultStats().Retries == 0 {
		t.Fatal("no retry recorded on the offloaded path")
	}
}

func TestChunkedUnderFaults(t *testing.T) {
	// Chunked logical messages recover chunk by chunk: moderate fault
	// rates across many chunks, payload identical, ledger intact.
	payload := make([]uint32, 1000)
	for i := range payload {
		payload[i] = uint32(i * 3)
	}
	w := newTestWorld(t, 2)
	w.SetFault(&fault.Plan{Seed: 9, PCorrupt: 0.2, PDrop: 0.2, PDuplicate: 0.2})
	comms, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendChunked(1, 1, payload, 64)
		} else {
			got := c.RecvChunked(0, 1, 64)
			if len(got) != len(payload) {
				panic("chunked length mismatch")
			}
			for i := range got {
				if got[i] != payload[i] {
					panic("chunked payload mismatch")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, comms)
	if MergeFaultStats(comms).Injected() == 0 {
		t.Fatal("plan injected nothing across 17 chunks")
	}
}

func TestFaultedRunDeterministic(t *testing.T) {
	run := func() float64 {
		w := newTestWorld(t, 4)
		w.SetFault(&fault.Plan{Seed: 10, PCorrupt: 0.3, PDrop: 0.3, PDuplicate: 0.2, PDelay: 0.1, MaxDelay: 1e-5})
		comms, err := w.Run(func(c *Comm) {
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			for round := 0; round < 20; round++ {
				c.Send(next, round, []uint32{uint32(c.Rank()), uint32(round)})
				got := c.Recv(prev, round)
				if int(got[0]) != prev || int(got[1]) != round {
					panic("ring payload wrong")
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		checkLedger(t, comms)
		return MaxClock(comms)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same plan, different clocks: %v vs %v", a, b)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	w := newTestWorld(t, 2)
	// CleanAttempt < 0 disables the forced-clean bound, so PDrop=1
	// loses every copy and the budget must trip.
	w.SetFault(&fault.Plan{Seed: 11, PDrop: 1, CleanAttempt: -1, MaxAttempts: 4})
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []uint32{1})
		} else {
			c.Recv(0, 1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("expected retry-budget error, got %v", err)
	}
}

func TestSendSharpEdges(t *testing.T) {
	cases := []struct {
		name string
		body func(c *Comm)
		want string
	}{
		{"out-of-range", func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(7, 1, []uint32{1})
			}
		}, "out-of-range rank 7"},
		{"negative", func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(-1, 1, []uint32{1})
			}
		}, "out-of-range rank -1"},
		{"nil-payload", func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 1, nil)
			}
		}, "nil payload"},
		{"isend-out-of-range", func(c *Comm) {
			if c.Rank() == 0 {
				c.Isend(99, 1, []uint32{1})
			}
		}, "out-of-range rank 99"},
		{"isend-nil-payload", func(c *Comm) {
			if c.Rank() == 0 {
				c.Isend(1, 1, nil)
			}
		}, "nil payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorld(t, 2)
			_, err := w.Run(tc.body)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("expected error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestWorldReusableAcrossFaultedRuns(t *testing.T) {
	// Binding and unbinding a plan between runs on the same world must
	// not leak duplicate copies or sequence state across runs.
	w := newTestWorld(t, 2)
	body := func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []uint32{9})
		} else {
			if got := c.Recv(0, 1); got[0] != 9 {
				panic("wrong payload")
			}
		}
	}
	w.SetFault(&fault.Plan{Seed: 13, PDuplicate: 1})
	if _, err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	w.SetFault(nil)
	comms, err := w.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	if !MergeFaultStats(comms).Zero() {
		t.Fatalf("clean run recorded fault activity: %+v", MergeFaultStats(comms))
	}
}

// TestChecksumCatchesEveryBitFlip requires the frame checksum to fail
// verification for every single-bit flip of payloads of 1 to 64 words,
// for every garble output the fault plan can draw on them, and for the
// envelope flip post applies to an empty payload.
func TestChecksumCatchesEveryBitFlip(t *testing.T) {
	x := uint32(0x9e3779b9)
	for n := 1; n <= 64; n++ {
		data := make([]uint32, n)
		for i := range data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = x
		}
		if n%8 == 0 {
			clear(data[n/2:]) // runs of zero words as well
		}
		sum := checksum(data)
		if !verifyFrame(message{data: data, sum: sum}) {
			t.Fatalf("%d words: a clean frame fails verification", n)
		}
		flipped := make([]uint32, n)
		for i := range data {
			for bit := 0; bit < 32; bit++ {
				copy(flipped, data)
				flipped[i] ^= 1 << bit
				if verifyFrame(message{data: flipped, sum: sum}) {
					t.Fatalf("%d words: flipping bit %d of word %d goes undetected", n, bit, i)
				}
			}
		}
		for seq := uint32(0); seq < 16; seq++ {
			for src := 0; src < 4; src++ {
				g := garble(data, src, 3-src, seq)
				if verifyFrame(message{data: g, sum: sum}) {
					t.Fatalf("%d words: garble(src %d, seq %d) goes undetected", n, src, seq)
				}
			}
		}
	}
	// post corrupts a zero-length payload by flipping envelope bits.
	empty := []uint32{}
	if verifyFrame(message{data: empty, sum: checksum(empty) ^ 0x5a5a5a5a}) {
		t.Fatal("the empty-payload envelope flip goes undetected")
	}
	if !verifyFrame(message{data: empty, sum: checksum(empty)}) {
		t.Fatal("a clean empty frame fails verification")
	}
}

var checksumSink uint32

// BenchmarkChecksum times the frame checksum on a 16-word and a
// 16k-word payload.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{16, 16 << 10} {
		b.Run(fmt.Sprintf("words=%d", n), func(b *testing.B) {
			data := make([]uint32, n)
			for i := range data {
				data[i] = uint32(i) * 2654435761
			}
			b.SetBytes(int64(4 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checksumSink = checksum(data)
			}
		})
	}
}
