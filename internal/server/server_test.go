package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"noblsm/internal/engine"
	"noblsm/internal/server"
	"noblsm/internal/server/client"
	"noblsm/internal/server/wire"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
)

// testOptions shrinks the per-shard engine geometry so flushes and
// compactions trigger inside small tests, mirroring the engine
// package's own smallOpts/smallDevice scaling.
func testOptions(shards int) server.Options {
	eo := engine.DefaultOptions()
	eo.WriteBufferSize = 32 << 10
	eo.TableFileSize = 16 << 10
	eo.Picker.BaseLevelBytes = 64 << 10
	eo.Picker.LevelMultiplier = 4
	eo.PollInterval = 50 * vclock.Millisecond
	dev := ssd.PM883()
	dev.ReadLatency = 500 * vclock.Nanosecond
	dev.WriteLatency = 400 * vclock.Nanosecond
	dev.FlushLatency = 6 * vclock.Microsecond
	return server.Options{Shards: shards, Engine: eo, Device: dev}
}

// startServer boots a server on a loopback port and tears it down with
// the test.
func startServer(t *testing.T, shards int) (*server.Server, string) {
	t.Helper()
	s, err := server.New(testOptions(shards))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, addr.String()
}

func dial(t *testing.T, addr string, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key%06d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%06d-%06d", i, i*7)) }

func TestServerBasicOps(t *testing.T) {
	_, addr := startServer(t, 4)
	c := dial(t, addr, client.Options{})
	if c.Shards() != 4 {
		t.Fatalf("handshake learned %d shards, want 4", c.Shards())
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := c.Put(key(i), value(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, err := c.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get %d = %q, %v", i, v, err)
		}
	}
	if _, err := c.Get([]byte("no-such-key")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("missing key: %v, want ErrNotFound", err)
	}
	for i := 0; i < n; i += 2 {
		if err := c.Delete(key(i)); err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, err := c.Get(key(i))
		if i%2 == 0 {
			if !errors.Is(err, client.ErrNotFound) {
				t.Fatalf("deleted key %d: %q, %v", i, v, err)
			}
		} else if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("surviving key %d = %q, %v", i, v, err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || st.TotalOps == 0 {
		t.Fatalf("stats = %+v", st)
	}
	for _, sh := range st.PerShard {
		if sh.Ops > 0 && sh.VSec <= 0 {
			t.Fatalf("shard %d served %d ops but virtual clock never advanced", sh.Shard, sh.Ops)
		}
	}
}

// TestMultiGetEquivalence: a MULTIGET over the wire must return
// exactly what per-key GETs return — same values, same absences —
// regardless of how the batch scatters across shards.
func TestMultiGetEquivalence(t *testing.T) {
	_, addr := startServer(t, 4)
	c := dial(t, addr, client.Options{})
	const n = 300
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			continue // leave a third of the keyspace absent
		}
		if err := c.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		batch := make([][]byte, 0, 64)
		for j := 0; j < 64; j++ {
			batch = append(batch, key(rng.Intn(n+20))) // some beyond the keyspace
		}
		got, err := c.MultiGet(batch)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(batch) {
			t.Fatalf("trial %d: %d results for %d keys", trial, len(got), len(batch))
		}
		for j, k := range batch {
			want, gerr := c.Get(k)
			if errors.Is(gerr, client.ErrNotFound) {
				if got[j] != nil {
					t.Fatalf("trial %d key %q: multiget %q, get says absent", trial, k, got[j])
				}
				continue
			}
			if gerr != nil {
				t.Fatal(gerr)
			}
			if !bytes.Equal(got[j], want) {
				t.Fatalf("trial %d key %q: multiget %q, get %q", trial, k, got[j], want)
			}
		}
	}
}

// TestClientServerRingAgreement: the client's independently built ring
// must route every key to the same shard the server's ring does — the
// property that makes connection affinity and per-shard MULTIGET
// batches line up with the server's own placement.
func TestClientServerRingAgreement(t *testing.T) {
	s, addr := startServer(t, 8)
	c := dial(t, addr, client.Options{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		k := make([]byte, 1+rng.Intn(32))
		rng.Read(k)
		if cs, ss := c.Ring().Shard(k), s.Ring().Shard(k); cs != ss {
			t.Fatalf("key %x: client shard %d, server shard %d", k, cs, ss)
		}
	}
}

func TestScan(t *testing.T) {
	s, addr := startServer(t, 2)
	c := dial(t, addr, client.Options{})
	const n = 400
	for i := 0; i < n; i++ {
		if err := c.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for sh := 0; sh < s.NumShards(); sh++ {
		var start []byte
		var prev []byte
		for {
			pairs, err := c.Scan(sh, start, 100)
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) == 0 {
				break
			}
			for _, p := range pairs {
				if prev != nil && bytes.Compare(p.Key, prev) <= 0 {
					t.Fatalf("shard %d scan not strictly ascending: %q after %q", sh, p.Key, prev)
				}
				if s.Ring().Shard(p.Key) != sh {
					t.Fatalf("shard %d returned key %q owned by shard %d", sh, p.Key, s.Ring().Shard(p.Key))
				}
				prev = append(prev[:0], p.Key...)
				total++
			}
			start = append(append([]byte(nil), prev...), 0) // next key after prev
		}
	}
	if total != n {
		t.Fatalf("scanned %d keys across shards, want %d", total, n)
	}
}

// TestMalformedFrames: hostile bytes on the socket must never take the
// server down — the offending connection dies (or gets an error
// response), every other connection keeps working.
func TestMalformedFrames(t *testing.T) {
	_, addr := startServer(t, 2)
	c := dial(t, addr, client.Options{})
	if err := c.Put([]byte("canary"), []byte("alive")); err != nil {
		t.Fatal(err)
	}

	hostile := [][]byte{
		// Oversized length prefix.
		{0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		// Torn frame: header promises 100 bytes, delivers 3.
		append([]byte{100, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, 'a', 'b', 'c'),
		// Random junk.
		bytes.Repeat([]byte{0xA5, 0x5A, 0x00, 0xFF}, 64),
	}
	for i, payload := range hostile {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(payload); err != nil {
			t.Fatalf("hostile %d write: %v", i, err)
		}
		// The server must hang up on its own; a read should terminate.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		io.Copy(io.Discard, conn)
		conn.Close()
	}

	// A whole frame the server cannot execute — a garbage body, an
	// opcode it never knew (99), one it no longer knows (7, CKPT_BEGIN
	// of shard 1 as its deleted builder framed it) — keeps the
	// connection alive: the framing is sound, so the server answers
	// StatusErr and keeps reading.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	vandals := wire.AppendFrame(nil, wire.OpPut, 9, []byte{0xFF}) // truncated uvarint key length
	vandals = append(vandals, 0, 0, 0, 0, 99, 99, 0, 0, 0, 0, 0, 0, 0)
	vandals = append(vandals, 4, 0, 0, 0, 7, 7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)
	goodGet := wire.AppendGet(nil, 10, []byte("canary"))
	if _, err := conn.Write(append(vandals, goodGet...)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{9, 99, 7} {
		if r := readResp(t, conn); r.ID != id || r.Status != wire.StatusErr {
			t.Fatalf("vandal response = %+v, want StatusErr id %d", r, id)
		}
	}
	r2 := readResp(t, conn)
	if r2.ID != 10 || r2.Status != wire.StatusOK || string(r2.Value) != "alive" {
		t.Fatalf("follow-up GET = %+v", r2)
	}

	// The original client never noticed any of it.
	v, err := c.Get([]byte("canary"))
	if err != nil || string(v) != "alive" {
		t.Fatalf("canary after hostile traffic = %q, %v", v, err)
	}
}

// readResp reads one raw response frame off a bare socket (the tests
// that bypass the client package to send hand-crafted bytes).
func readResp(t *testing.T, c net.Conn) wire.Response {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	hdr := make([]byte, 13)
	if _, err := io.ReadFull(c, hdr); err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	body := make([]byte, n)
	if _, err := io.ReadFull(c, body); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ParseResponse(wire.Frame{
		Op:   wire.Op(hdr[4]),
		ID:   binary.LittleEndian.Uint64(hdr[5:13]),
		Body: body,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestShardCloseReopen: an administratively closed shard fails its own
// requests with ErrShardClosed while the rest keep serving; reopening
// recovers everything from the shard's WAL and tables.
func TestShardCloseReopen(t *testing.T) {
	s, addr := startServer(t, 4)
	c := dial(t, addr, client.Options{})
	const n = 200
	for i := 0; i < n; i++ {
		if err := c.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	victim := s.Ring().Shard(key(0))
	if err := s.CloseShard(victim); err != nil {
		t.Fatal(err)
	}
	closedKeys, openKeys := 0, 0
	for i := 0; i < n; i++ {
		v, err := c.Get(key(i))
		if s.Ring().Shard(key(i)) == victim {
			closedKeys++
			if !errors.Is(err, client.ErrShardClosed) {
				t.Fatalf("key %d on closed shard: %q, %v", i, v, err)
			}
		} else {
			openKeys++
			if err != nil || !bytes.Equal(v, value(i)) {
				t.Fatalf("key %d on open shard: %q, %v", i, v, err)
			}
		}
	}
	if closedKeys == 0 || openKeys == 0 {
		t.Fatalf("degenerate key split: %d closed, %d open", closedKeys, openKeys)
	}
	// MULTIGET touching the closed shard fails whole-batch with
	// ErrShardClosed (no ambiguous partial results).
	if _, err := c.MultiGet([][]byte{key(0), key(1), key(2), key(3)}); !errors.Is(err, client.ErrShardClosed) {
		t.Fatalf("multiget over closed shard: %v", err)
	}
	if err := s.ReopenShard(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, err := c.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("key %d after reopen: %q, %v", i, v, err)
		}
	}
}

// TestDisconnectMidPipeline: a client that blasts a pipeline of writes
// and vanishes without reading a single response must leave the server
// consistent — every key it managed to write reads back with the full
// correct value (frames are executed atomically or not at all; a torn
// tail frame is discarded, never half-applied).
func TestDisconnectMidPipeline(t *testing.T) {
	_, addr := startServer(t, 4)
	const n = 500
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var blast []byte
	for i := 0; i < n; i++ {
		blast = wire.AppendPut(blast, uint64(i), key(i), value(i))
	}
	// Send most of it plus a torn final frame, then vanish.
	torn := wire.AppendPut(nil, n, key(n), value(n))
	if _, err := conn.Write(append(blast, torn[:len(torn)-3]...)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	c := dial(t, addr, client.Options{})
	// The server drains the pipeline asynchronously; poll until the
	// tail key settles (present or the server finished discarding).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Get(key(n - 1)); err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	applied := 0
	for i := 0; i < n; i++ {
		v, err := c.Get(key(i))
		switch {
		case err == nil:
			if !bytes.Equal(v, value(i)) {
				t.Fatalf("key %d half-applied: %q", i, v)
			}
			applied++
		case errors.Is(err, client.ErrNotFound):
			// Dropped with the connection — acceptable for un-acked writes.
		default:
			t.Fatal(err)
		}
	}
	if applied == 0 {
		t.Fatal("no pipelined writes applied at all")
	}
	// The torn final frame must never materialize.
	if v, err := c.Get(key(n)); err == nil {
		t.Fatalf("torn frame applied: %q", v)
	}
}

// TestServerStress is the `make serverstress` hammer: concurrent
// client connections doing mixed reads/writes/multigets, an admin
// goroutine closing and reopening shards mid-run, and a vandal
// goroutine throwing malformed frames — all under -race in CI.
func TestServerStress(t *testing.T) {
	s, addr := startServer(t, 4)
	const (
		workers = 8
		opsEach = 400
		keys    = 1000
	)
	var bg, workersWG sync.WaitGroup
	stop := make(chan struct{})

	// Admin: toggle one shard at a time closed/open.
	bg.Add(1)
	go func() {
		defer bg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			sh := rng.Intn(s.NumShards())
			if err := s.CloseShard(sh); err == nil {
				time.Sleep(time.Millisecond)
				if err := s.ReopenShard(sh); err != nil {
					t.Errorf("reopen shard %d: %v", sh, err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Vandal: malformed frames on fresh connections.
	bg.Add(1)
	go func() {
		defer bg.Done()
		rng := rand.New(rand.NewSource(5))
		for {
			select {
			case <-stop:
				return
			default:
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			junk := make([]byte, 1+rng.Intn(256))
			rng.Read(junk)
			conn.Write(junk)
			conn.Close()
			time.Sleep(time.Millisecond)
		}
	}()

	// Workers: mixed traffic; ErrShardClosed is expected mid-toggle.
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			c, err := client.Dial(addr, client.Options{Conns: 2})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsEach; i++ {
				k := key(rng.Intn(keys))
				var err error
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					err = c.Put(k, value(w*opsEach+i))
				case 4:
					err = c.Delete(k)
				case 5, 6, 7:
					_, err = c.Get(k)
				default:
					batch := [][]byte{k, key(rng.Intn(keys)), key(rng.Intn(keys))}
					_, err = c.MultiGet(batch)
				}
				if err != nil && !errors.Is(err, client.ErrNotFound) && !errors.Is(err, client.ErrShardClosed) {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	// Workers run to completion, then the background troublemakers are
	// stopped; a watchdog catches a wedged run.
	workersDone := make(chan struct{})
	go func() { workersWG.Wait(); close(workersDone) }()
	select {
	case <-workersDone:
	case <-time.After(120 * time.Second):
		t.Fatal("stress workers wedged")
	}
	close(stop)
	bg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Leave every shard open (the admin may have been stopped
	// mid-toggle), then prove the server still serves.
	for sh := 0; sh < s.NumShards(); sh++ {
		_ = s.ReopenShard(sh) // errors for already-open shards are fine
	}
	c := dial(t, addr, client.Options{})
	if err := c.Put([]byte("post-stress"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get([]byte("post-stress")); err != nil || string(v) != "ok" {
		t.Fatalf("post-stress get = %q, %v", v, err)
	}
}

// ---------------------------------------------------------------------
// Admission-governor backpressure (PR 10): a saturated shard sheds
// writes with StatusBusy instead of stalling the connection, and the
// client's retry loop absorbs the sheds.

// governedOptions saturates one shard's admission governor
// deterministically: a pinned 1 MiB/s admitted rate, a tiny bucket and
// a short stall deadline, against a device squeezed so flushes
// genuinely fall behind (the engine package's pressureDevice recipe).
func governedOptions(shards int) server.Options {
	o := testOptions(shards)
	o.Engine.GovernorEnabled = true
	o.Engine.WriteStallDeadline = 200 * vclock.Microsecond
	o.Engine.Governor.BurstBytes = 4 << 10
	o.Engine.Governor.MinRateBytesPerSec = 1 << 20
	o.Engine.Governor.MaxRateBytesPerSec = 1 << 20
	o.Device.WriteLatency = 2 * vclock.Microsecond
	o.Device.WriteBandwidth = 64 << 20
	return o
}

// TestServerBusyBackpressure: with client retries disabled, a
// saturating write run surfaces ErrBusy (the StatusBusy wire status)
// for shed writes, never a hard error, and every acked write reads
// back — sheds are clean rejections, not partial applies.
func TestServerBusyBackpressure(t *testing.T) {
	s, err := server.New(governedOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	c := dial(t, addr.String(), client.Options{BusyRetries: -1})
	val := make([]byte, 512)
	acked := map[int]bool{}
	busy := 0
	for i := 0; i < 3000; i++ {
		switch err := c.Put(key(i), val); {
		case err == nil:
			acked[i] = true
		case errors.Is(err, client.ErrBusy):
			busy++
		default:
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if busy == 0 {
		t.Fatal("saturating run never got StatusBusy — governor not engaged over the wire")
	}
	if len(acked) == 0 {
		t.Fatal("every write shed — pacing should admit some")
	}
	if got := c.BusyEvents(); got != int64(busy) {
		t.Fatalf("client counted %d busy events, saw %d errors", got, busy)
	}
	for i := range acked {
		if v, err := c.Get(key(i)); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("acked key %d: %v", i, err)
		}
	}
	// Shed keys must NOT have been applied unless a later overwrite of
	// the same key was acked (keys here are unique, so: not at all).
	for i := 0; i < 3000; i++ {
		if acked[i] {
			continue
		}
		if _, err := c.Get(key(i)); !errors.Is(err, client.ErrNotFound) {
			t.Fatalf("shed key %d present: %v", i, err)
		}
	}
}

// TestClientBusyRetry: with a deep retry budget, the client's capped
// jittered backoff rides out the sheds — every write eventually lands
// even though the server was rejecting under saturation throughout.
func TestClientBusyRetry(t *testing.T) {
	s, err := server.New(governedOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	// Each rejected attempt advances the shard's virtual clock by the
	// stall deadline (the engine charges the bounded wait), so the
	// bucket refills across retries; 64 attempts covers the worst-case
	// deficit by a wide margin.
	c := dial(t, addr.String(), client.Options{
		BusyRetries:     64,
		BusyBackoffBase: 50 * time.Microsecond,
	})
	val := make([]byte, 512)
	for i := 0; i < 1500; i++ {
		if err := c.Put(key(i), val); err != nil {
			t.Fatalf("Put %d not absorbed by retry: %v", i, err)
		}
	}
	if c.BusyEvents() == 0 {
		t.Fatal("run never saturated — retry path untested")
	}
	for i := 0; i < 1500; i += 97 {
		if v, err := c.Get(key(i)); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("key %d after retries: %v", i, err)
		}
	}
}

// fillVirtualOpsPerSec runs one fillrandom — 8 000 Puts from 16
// workers over 8 pooled connections — against a server of the given
// shard count and returns the aggregate virtual throughput a client
// reads off the STATS frame: total ops over the straggler shard's
// virtual clock. Every shard owns a full simulated SSD and journal, so
// the run is over when the slowest shard's clock stops.
func fillVirtualOpsPerSec(t *testing.T, shards int) float64 {
	t.Helper()
	_, addr := startServer(t, shards)
	c := dial(t, addr, client.Options{Conns: 8})
	const workers, opsEach = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsEach; i++ {
				k := rng.Intn(workers * opsEach)
				if err := c.Put(key(k), value(k)); err != nil {
					t.Errorf("worker %d Put %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var straggler float64
	for _, sh := range st.PerShard {
		if sh.VSec > straggler {
			straggler = sh.VSec
		}
	}
	if st.TotalOps != workers*opsEach || straggler == 0 {
		t.Fatalf("%d shards: %d ops over %.6f virtual s", shards, st.TotalOps, straggler)
	}
	return float64(st.TotalOps) / straggler
}

// TestServerScaleOut holds the sharding claim: at equal client
// concurrency the same fill completes at least 3x sooner in virtual
// time on 8 shards than on 1.
func TestServerScaleOut(t *testing.T) {
	one, eight := fillVirtualOpsPerSec(t, 1), fillVirtualOpsPerSec(t, 8)
	t.Logf("virtual ops/s: 1 shard %.0f, 8 shards %.0f (%.2fx)", one, eight, eight/one)
	if eight < 3*one {
		t.Fatalf("8 shards run the fill %.2fx faster than 1 in virtual time, want >= 3x", eight/one)
	}
}
