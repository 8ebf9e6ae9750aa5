package core

import (
	"bytes"
	"testing"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// testConn returns a host connection outside any node.
func testConn() *hostConn { return &hostConn{avail: sim.NewCond(sim.NewEnv())} }

// segsOf splits b into MSS-sized segments for one pushRun.
func segsOf(c *hostConn, b []byte) []rxSeg {
	var run []rxSeg
	for off := 0; off < len(b); off += 1460 {
		run = append(run, rxSeg{c, b[off:min(off+1460, len(b))]})
	}
	return run
}

func TestStreamWholeTakeDoesNotAliasLaterPushes(t *testing.T) {
	c := testConn()
	a, b := pattern(3000), bytes.Repeat([]byte{0xA5}, 3000)
	c.pushRun(segsOf(c, a))
	got := c.takeStream(len(a))
	c.pushRun(segsOf(c, b))
	if !bytes.Equal(got, a) {
		t.Fatal("handed-over message changed after a later push")
	}
	if !bytes.Equal(c.takeStream(len(b)), b) {
		t.Fatal("second message corrupted")
	}
}

func TestStreamPartialTakeKeepsRemainder(t *testing.T) {
	c := testConn()
	msg := pattern(5000)
	c.pushRun(segsOf(c, msg))
	if got := c.takeStream(2000); !bytes.Equal(got, msg[:2000]) {
		t.Fatal("partial take returned wrong bytes")
	}
	if c.streamLen() != 3000 {
		t.Fatalf("remainder %d bytes, want 3000", c.streamLen())
	}
	// A reservation that compacts must keep the remainder too.
	c.reserveStream(cap(c.stream) - 3000)
	if got := c.takeStream(3000); !bytes.Equal(got, msg[2000:]) {
		t.Fatal("remainder corrupted")
	}
}

// TestStreamMessagesBufferedBeforeReadInOrder sends two messages to a
// client that only reads once both are buffered.
func TestStreamMessagesBufferedBeforeReadInOrder(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cl := NewCluster(env, SWOpt, DefaultParams())
	conn := cl.OpenConn(false)
	first, second := pattern(70000), bytes.Repeat([]byte{0x3C}, 5000)
	env.Spawn("server", func(p *sim.Proc) {
		cl.ServerSend(p, nil, conn, first)
		cl.ServerSend(p, nil, conn, second)
	})
	var got1, got2 []byte
	var buffered int
	env.Spawn("client", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		buffered = cl.Client.StreamLen(conn.ID)
		got1 = cl.ClientRecv(p, conn, len(first))
		got2 = cl.ClientRecv(p, conn, len(second))
	})
	env.Run(-1)
	if buffered != len(first)+len(second) {
		t.Fatalf("%d bytes buffered before the read, want %d", buffered, len(first)+len(second))
	}
	if !bytes.Equal(got1, first) || !bytes.Equal(got2, second) {
		t.Fatal("messages out of order or corrupted")
	}
}

func TestClientDrainKeepsCapacity(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cl := NewCluster(env, SWOpt, DefaultParams())
	conn := cl.OpenConn(false)
	const size = 40000
	env.Spawn("server", func(p *sim.Proc) {
		cl.ServerSend(p, nil, conn, pattern(size))
		cl.ServerSend(p, nil, conn, pattern(size))
	})
	c := cl.Client.conns[conn.ID]
	var caps [2]int
	var bases [2]*byte
	env.Spawn("client", func(p *sim.Proc) {
		for i := range caps {
			cl.ClientDrain(p, conn, size)
			caps[i] = cap(c.stream)
			bases[i] = &c.stream[:1][0]
		}
	})
	env.Run(-1)
	if c.streamLen() != 0 {
		t.Fatalf("%d bytes left after draining", c.streamLen())
	}
	if caps[0] < size || bases[0] != bases[1] {
		t.Fatalf("drain did not keep the buffer: caps %v, reused %v", caps, bases[0] == bases[1])
	}
}

// TestStreamWaitingReaderOneAlloc: with the reader's reservation in
// place before the message arrives, reassembly and the take allocate
// only the message buffer itself.
func TestStreamWaitingReaderOneAlloc(t *testing.T) {
	msg := pattern(64 << 10)
	c := testConn()
	// Poll batches of up to 8 MSS segments.
	segs := segsOf(c, msg)
	var runs [][]rxSeg
	for len(segs) > 0 {
		k := min(8, len(segs))
		runs, segs = append(runs, segs[:k]), segs[k:]
	}
	allocs := testing.AllocsPerRun(50, func() {
		c.reserveStream(len(msg) - c.streamLen())
		for _, run := range runs {
			c.pushRun(run)
		}
		if out := c.takeStream(len(msg)); len(out) != len(msg) {
			t.Fatal("short take")
		}
	})
	if allocs != 1 {
		t.Fatalf("%v allocations per message, want 1", allocs)
	}
}

// TestStreamHandoverCheckpointBytes: a connection left with a nil
// stream by a whole-stream take encodes exactly like one holding an
// empty buffer.
func TestStreamHandoverCheckpointBytes(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cl := NewCluster(env, SWOpt, DefaultParams())
	conn := cl.OpenConn(false)
	msg := pattern(9000)
	env.Spawn("server", func(p *sim.Proc) { cl.ServerSend(p, nil, conn, msg) })
	env.Spawn("client", func(p *sim.Proc) {
		if !bytes.Equal(cl.ClientRecv(p, conn, len(msg)), msg) {
			t.Error("message corrupted")
		}
	})
	env.Run(-1)
	c := cl.Client.conns[conn.ID]
	if c.stream != nil {
		t.Fatal("whole-stream take kept the buffer")
	}
	encode := func() []byte {
		c := snap.NewSaver(snap.Header{})
		if err := cl.Client.snapNodeState(c); err != nil {
			t.Fatal(err)
		}
		return c.Finish()
	}
	handedOver := encode()
	c.stream = make([]byte, 0, 4096)
	if !bytes.Equal(handedOver, encode()) {
		t.Fatal("nil and empty streams encode differently")
	}
}
