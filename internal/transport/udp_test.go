package transport

import (
	"fmt"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// udpPair binds two loopback sockets, skipping the test when the
// environment forbids UDP.
func udpPair(t *testing.T) (PacketConn, PacketConn) {
	t.Helper()
	pa, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP available: %v", err)
	}
	pb, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		pa.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { pa.Close(); pb.Close() })
	return pa, pb
}

// TestUDPRoundTrip moves 400 datagrams of mixed sizes over loopback and
// checks each arrives whole, with one syscall per datagram each way.
func TestUDPRoundTrip(t *testing.T) {
	pa, pb := udpPair(t)
	const total = 400
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			got, _, err := pb.ReadFrom()
			if err != nil {
				done <- err
				return
			}
			if len(got) != 3+i%32 {
				done <- fmt.Errorf("datagram %d: got %d bytes, want %d", i, len(got), 3+i%32)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < total; i++ {
		if err := pa.WriteTo(pb.LocalAddr(), make([]byte, 3+i%32)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("round trip stalled")
	}
	ioA, okA := IOStatsOf(pa)
	ioB, okB := IOStatsOf(pb)
	if !okA || !okB {
		t.Fatal("udp conns do not expose IOStats")
	}
	if ioA.WriteCalls != total || ioB.ReadCalls != total {
		t.Fatalf("syscalls: %d writes and %d reads for %d datagrams", ioA.WriteCalls, ioB.ReadCalls, total)
	}
}

// TestTransportIsPortable keeps the package one build for every
// platform: no non-test file imports unsafe or syscall or carries a
// //go:build line.
func TestTransportIsPortable(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly|parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files++
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "unsafe" || path == "syscall" {
				t.Errorf("%s imports %s", name, path)
			}
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				if constraint.IsGoBuild(c.Text) {
					t.Errorf("%s: %s", fset.Position(c.Pos()), c.Text)
				}
			}
		}
	}
	if files < 5 {
		t.Fatalf("scanned only %d files: the test is not reading the package", files)
	}
}

func TestUDPResolveCacheBounded(t *testing.T) {
	pa, _ := udpPair(t)
	c := pa.(*udpConn)
	peer := func(i int) netsim.Addr { return netsim.Addr{Host: "127.0.0.1", Port: uint16(40000 + i)} }
	for i := range resolveCacheCap + 20 {
		if _, err := c.resolve(peer(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n, fifo := len(c.cache), len(c.cacheFIFO)
	_, kept := c.cache[peer(0)]
	c.mu.Unlock()
	if n > resolveCacheCap || fifo > resolveCacheCap {
		t.Fatalf("resolve cache grew past its bound: map=%d fifo=%d cap=%d", n, fifo, resolveCacheCap)
	}
	if kept {
		t.Fatal("the oldest peer was not evicted")
	}
	// Eviction must not break resolution: an evicted peer resolves again.
	if ua, err := c.resolve(peer(0)); err != nil || ua.Port != 40000 {
		t.Fatalf("evicted peer resolves to %v, %v", ua, err)
	}
}

func TestUDPReadFromAllocBounded(t *testing.T) {
	// Regression guard for the old per-read 60KB allocation: the read
	// path recycles its oversized receive buffer and hands the caller an
	// exact-size copy, so bytes allocated per read stay near the
	// datagram size, not MaxDatagram.
	if testing.Short() {
		t.Skip("allocation benchmark in -short mode")
	}
	if raceEnabled {
		t.Skip("race detector shadow allocations break byte accounting")
	}
	res := testing.Benchmark(func(b *testing.B) {
		pa, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			b.Skip("no loopback UDP")
		}
		pb, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			pa.Close()
			b.Skip("no loopback UDP")
		}
		defer pa.Close()
		defer pb.Close()
		payload := make([]byte, 100)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pa.WriteTo(pb.LocalAddr(), payload); err != nil {
				b.Fatal(err)
			}
			if _, _, err := pb.ReadFrom(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if res.N == 0 {
		t.Skip("benchmark did not run")
	}
	if per := res.AllocedBytesPerOp(); per > 4096 {
		t.Fatalf("write+read allocates %d B/op; receive buffer is not being recycled", per)
	}
}

// TestUDPSenderAddrForm pins the form of a datagram's sender address: a v4 host as a dotted quad, also when a dual-stack
// socket sees it v4-mapped, and a v6 host as net.IP prints it.
func TestUDPSenderAddrForm(t *testing.T) {
	for _, tc := range []struct{ recv, send, host string }{
		{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1"},
		{"[::]:0", "127.0.0.1:0", "127.0.0.1"}, // arrives as ::ffff:127.0.0.1
		{"[::1]:0", "[::1]:0", "::1"},
	} {
		pb, err := ListenUDP(tc.recv)
		if err != nil {
			t.Logf("skipping %s: %v", tc.recv, err)
			continue
		}
		sa, err := net.ResolveUDPAddr("udp", tc.send)
		if err != nil {
			t.Fatal(err)
		}
		sender, err := net.ListenUDP("udp", sa)
		if err != nil {
			pb.Close()
			t.Logf("skipping %s: %v", tc.send, err)
			continue
		}
		to := &net.UDPAddr{IP: net.ParseIP(tc.host), Port: int(pb.LocalAddr().Port)}
		want := netsim.Addr{Host: tc.host, Port: uint16(sender.LocalAddr().(*net.UDPAddr).Port)}
		for range 2 { // the second read takes the memoized address
			if _, err := sender.WriteToUDP([]byte("x"), to); err != nil {
				t.Fatal(err)
			}
			_, from, err := pb.ReadFrom()
			if err != nil {
				t.Fatal(err)
			}
			if from != want {
				t.Fatalf("%s from %s: sender %v, want %v", tc.recv, tc.send, from, want)
			}
		}
		sender.Close()
		pb.Close()
	}
}

// TestUDPReadAllocs is the read path's allocation budget: a datagram
// from the same sender as the one before costs the exact-size copy
// handed to the caller and nothing else. Writes go out before the
// count, so only ReadFrom is measured.
func TestUDPReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	pa, pb := udpPair(t)
	const runs = 50 // AllocsPerRun makes runs+1 reads
	for range runs + 2 {
		if err := pa.WriteTo(pb.LocalAddr(), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := pb.ReadFrom(); err != nil { // memoize the sender
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, _, err := pb.ReadFrom(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ReadFrom allocates %.2f times per datagram, want <= 1", allocs)
	}
}
