package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// The one datagram codec round-trips every shape: a bare ack with or
// without its bitmap, a lone frame with or without an ack, and any
// number of frames, each with its header inline or not, behind any
// header.
func TestBatchCodecRoundTrip(t *testing.T) {
	// sel is the selective bitmap; the codec carries its 64 bits untouched
	// (TestRecoveryLostSelectiveAcksCostNothing reads the bits). A frame
	// whose hdrs entry is nil leaves its header out.
	f := func(hasCum bool, cum uint64, sel uint64, hasSel bool, seqs []uint64, payloads, hdrs [][]byte) bool {
		n := min(len(seqs), len(payloads), len(hdrs))
		seqs, payloads, hdrs = seqs[:n], payloads[:n], hdrs[:n]
		dgram := appendHeader(nil, hasCum, cum, sel, hasSel)
		for i := range seqs {
			inline := hdrs[i] != nil
			dgram = appendFrame(dgram, seqs[i], hdrs[i], inline, payloads[i])
			if frameLen(seqs[i], hdrs[i], inline, payloads[i]) != len(appendFrame(nil, seqs[i], hdrs[i], inline, payloads[i])) {
				return false
			}
		}
		gc, gotCum, gs, gotSel, off, ok := parseHeader(dgram)
		if !ok || gotCum != hasCum || gotSel != (hasCum && hasSel) ||
			hasCum && gc != cum || gotSel && gs != sel {
			return false
		}
		for i := range seqs {
			fr, next, ok := nextFrame(dgram, off)
			if !ok || fr.seq != seqs[i] || !bytes.Equal(fr.payload, payloads[i]) ||
				fr.inline != (hdrs[i] != nil) || !bytes.Equal(fr.hdr, hdrs[i]) {
				return false
			}
			off = next
		}
		_, _, ok = nextFrame(dgram, off)
		return off == len(dgram) && !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if n := len(appendHeader(nil, true, 1, 0, false)); n != 4 {
		t.Errorf("a bare ack of seq 1 is %d bytes, want 4", n)
	}
	if n := len(appendHeader(nil, true, ^uint64(0), 1, true)); n != dgramHdrMax {
		t.Errorf("the largest bare ack with its bitmap is %d bytes, want %d", n, dgramHdrMax)
	}
}

func TestBatchCodecRejectsTruncation(t *testing.T) {
	full := appendHeader(nil, true, 41, 0b101, true)
	hdrLen := len(full)
	full = appendFrame(full, 1, []byte("hdr"), true, []byte("hello"))
	full = appendFrame(full, 2, nil, false, []byte("world"))
	// A truncated tail must stop the frame walk, never over-read, and
	// yield only whole frames of the original.
	for cut := len(full) - 1; cut >= 0; cut-- {
		short := full[:cut]
		_, _, _, _, off, ok := parseHeader(short)
		if !ok {
			if cut >= hdrLen {
				t.Fatalf("cut=%d: a whole header rejected", cut)
			}
			continue // header itself truncated: fine
		}
		for i := 0; ; i++ {
			fr, next, ok := nextFrame(short, off)
			if !ok {
				break
			}
			if next <= off || fr.seq != uint64(i+1) || len(fr.payload) != 5 || fr.inline != (i == 0) {
				t.Fatalf("cut=%d: frame %d read as %+v", cut, i, fr)
			}
			off = next
		}
	}
	// Garbage must be rejected, and so must the layout before header
	// elision, which opened with "ww".
	noMagic := bytes.Clone(full)
	noMagic[0] = 'x'
	oldMagic := bytes.Clone(full)
	oldMagic[1] = 'w'
	for _, bad := range [][]byte{nil, {}, {1, 2, 3}, []byte("not a datagram at all"), noMagic, oldMagic,
		{magic[0], magic[1], flagCum}, {magic[0], magic[1], flagCum, 0x80},
		{magic[0], magic[1], flagCum | flagSel, 41, 0, 0, 0, 0, 0, 0, 1}} {
		if _, _, _, _, _, ok := parseHeader(bad); ok {
			t.Errorf("parseHeader(%q) accepted garbage", bad)
		}
	}
}

// busyPair drives total frames in both directions at once over a pair
// and waits until everything is delivered.
func busyPair(t *testing.T, ra, rb *endpoint, total, size int) {
	t.Helper()
	payload := make([]byte, size)
	var wg sync.WaitGroup
	for _, pair := range [][2]*endpoint{{ra, rb}, {rb, ra}} {
		snd, rcv := pair[0], pair[1]
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < total; i++ {
				if _, _, err := recvTimeout(rcv, 10*time.Second); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			to := rcv.LocalAddr()
			for i := 0; i < total; i++ {
				if err := snd.Send(to, nil, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCoalescingBusyPairDatagramRatio(t *testing.T) {
	cfg := Config{RTO: 100 * time.Millisecond, MaxRetries: 100, Window: 512}
	_, ra, rb := pairOn(t, "a", "b", cfg)
	const total = 4000
	busyPair(t, ra, rb, total, 32)
	sa, sb := ra.Stats(), rb.Stats()
	frames := sa.DataSent + sa.Retransmits + sa.AcksSent + sb.DataSent + sb.Retransmits + sb.AcksSent
	dgrams := sa.DatagramsOut + sb.DatagramsOut
	// Each side's counters, so a failure shows which of them moved:
	// resends, bare acks, datagrams or the reasons stages were flushed.
	counters := func(s Stats) string {
		return fmt.Sprintf("Retransmits=%d AcksSent=%d DatagramsOut=%d FlushSize=%d FlushAck=%d FlushWindow=%d FlushBackstop=%d",
			s.Retransmits, s.AcksSent, s.DatagramsOut, s.FlushSize, s.FlushAck, s.FlushWindow, s.FlushBackstop)
	}
	if dgrams == 0 || frames < 2*total {
		t.Fatalf("implausible accounting: frames=%d datagrams=%d\na: %s\nb: %s", frames, dgrams, counters(sa), counters(sb))
	}
	// The acceptance bar: a busy pair coalesces at least 4 frames into
	// each datagram on average.
	if float64(frames) < 4*float64(dgrams) {
		t.Fatalf("frames=%d datagrams=%d: coalescing factor %.2f < 4\na: %s\nb: %s",
			frames, dgrams, float64(frames)/float64(dgrams), counters(sa), counters(sb))
	}
	if sa.FlushSize+sa.FlushAck+sa.FlushWindow == 0 {
		t.Fatalf("no staged frame ever left: %+v", sa)
	}
}

func TestPiggybackedAckEquivalence(t *testing.T) {
	// A bidirectional workload delivers exactly the sequence sent, and
	// the side with reverse traffic piggybacks acks instead of sending
	// them standalone.
	cfg := Config{RTO: 100 * time.Millisecond, MaxRetries: 100, Window: 256}
	_, ra, rb := pairOn(t, "a", "b", cfg)
	const total = 300
	var got []string
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			p, _, err := recvTimeout(rb, 10*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, string(p))
		}
	}()
	go func() { // reverse traffic for acks to ride on
		defer wg.Done()
		to := ra.LocalAddr()
		for i := 0; i < total; i++ {
			if err := rb.Send(to, nil, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := recvTimeout(ra, 10*time.Second); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	to := rb.LocalAddr()
	for i := 0; i < total; i++ {
		if err := ra.Send(to, nil, []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if len(got) != total {
		t.Fatalf("delivered %d of %d", len(got), total)
	}
	for i := range got {
		if want := fmt.Sprintf("m%03d", i); got[i] != want {
			t.Fatalf("delivery %d is %q, want %q", i, got[i], want)
		}
	}
	if st := rb.Stats(); st.AcksPiggybacked == 0 {
		t.Fatalf("no piggybacked acks on a busy bidirectional pair: %+v", st)
	}
}

func TestAckEveryAckDelayInterplayWithCoalescing(t *testing.T) {
	// One-way traffic: the receiver has no reverse data, so acks still
	// flow bare under the ackEvery/AckDelay policy and the sender's window
	// keeps draining.
	cfg := Config{RTO: 200 * time.Millisecond, MaxRetries: 100, Window: 16,
		AckDelay: 10 * time.Millisecond}
	_, ra, rb := pairOn(t, "a", "b", cfg)
	to := rb.LocalAddr()
	const total = 200 // far more than the window: progress needs acks
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if _, _, err := recvTimeout(rb, 10*time.Second); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < total; i++ {
		if err := ra.SendWait(to, nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := rb.Stats()
	if st.AcksSent == 0 {
		t.Fatal("no standalone acks on a one-way stream")
	}
	// An ack every 8 messages coalesces acknowledgements roughly 8:1;
	// allow slack for delay-triggered acks but reject one-ack-per-message
	// behavior.
	if st.AcksSent > total/2 {
		t.Fatalf("AcksSent = %d for %d one-way messages; ack coalescing regressed", st.AcksSent, total)
	}
	if sa := ra.Stats(); sa.Retransmits > total/10 {
		t.Fatalf("Retransmits = %d; ack policy starving the window", sa.Retransmits)
	}
}

func TestOversizeFrameBypassesCoalescing(t *testing.T) {
	cfg := Config{RTO: 200 * time.Millisecond, MaxRetries: 100, Window: 16}
	_, ra, rb := pairOn(t, "a", "b", cfg)
	big := make([]byte, datagramBudget+100)
	for i := range big {
		big[i] = byte(i)
	}
	if err := ra.Send(rb.LocalAddr(), nil, big); err != nil {
		t.Fatal(err)
	}
	got, _, err := recvTimeout(rb, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("oversize frame corrupted")
	}
}
