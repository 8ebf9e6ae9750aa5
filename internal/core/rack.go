package core

import (
	"fmt"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/nic"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/shard"
	"dcsctrl/internal/trace"
)

// RackParams configures a multi-node rack on a switched fabric
// (internal/ether) executed by the conservative parallel kernel
// (internal/sim/shard). The two-node Cluster stays the thin special
// case for the paper's microbenchmarks; Rack is the scale-out path.
type RackParams struct {
	Nodes   int // node count (1..65536)
	Domains int // shard count; default 1 (serial reference schedule)
	Workers int // worker goroutines per window; default = Domains

	Kind   Config         // every node's configuration; default SWOpt
	Spec   ether.RackSpec // fabric shape; Nodes is filled in, link rate/latency default from the NIC
	Params Params         // per-node device parameters; zero value takes rack defaults

	// FaultProfile, when it has rules, arms fault injection with one
	// injector per node, seeded from FaultSeed and the node index. The
	// injectors must be per-node: nodes in different domains draw from
	// their streams concurrently, and a shared injector would be both a
	// data race and a decomposition-dependent draw order.
	FaultProfile fault.Profile
	FaultSeed    uint64
}

// Rack is N nodes on a switched ToR/spine fabric, sharded across
// parallel execution domains.
type Rack struct {
	Topo   *ether.Topology
	Fabric *ether.FabricSim
	Kernel *shard.Kernel
	Nodes  []*Node

	nextConn uint64
	ports    map[[2]int]*PortSpace // per directed (client, server) pair
}

// rackNodeParams derives the per-node parameter set: explicit Params
// are used as given; the zero value takes the calibrated defaults with
// the per-node memory arenas shrunk (a rack instantiates every region
// N times, and rack workloads bound their in-flight footprint).
func rackNodeParams(rp RackParams) Params {
	p := rp.Params
	if p.NIC.WireBps == 0 {
		p = DefaultParams()
		p.HostArenaBytes = 8 << 20
		p.GPU.VRAMBytes = 8 << 20
	}
	return p
}

// NewRack builds the topology, the shard kernel, and the nodes, and
// wires every NIC to the fabric.
func NewRack(rp RackParams) *Rack {
	if rp.Nodes < 1 {
		panic("core: rack needs at least one node")
	}
	if rp.Domains < 1 {
		rp.Domains = 1
	}
	if rp.Domains > rp.Nodes {
		rp.Domains = rp.Nodes
	}
	if rp.Workers < 1 {
		rp.Workers = rp.Domains
	}
	p := rackNodeParams(rp)

	spec := rp.Spec
	spec.Nodes = rp.Nodes
	if spec.NodeBps == 0 {
		spec.NodeBps = p.NIC.WireBps
	}
	if spec.NodeLinkLat == 0 {
		spec.NodeLinkLat = p.NIC.PropDelay
	}
	topo := ether.NewTopology(spec)
	fab := ether.NewFabricSim(topo)
	k := shard.NewKernel(fab, topo.Lookahead(), rp.Workers)

	r := &Rack{
		Topo:   topo,
		Fabric: fab,
		Kernel: k,
		ports:  map[[2]int]*PortSpace{},
	}
	domains := make([]*shard.Domain, rp.Domains)
	for d := range domains {
		domains[d] = k.AddDomain()
	}
	for i := 0; i < rp.Nodes; i++ {
		d := domains[i*rp.Domains/rp.Nodes]
		np := p
		if len(rp.FaultProfile.Rules) > 0 {
			np.Faults = fault.NewInjector(rp.FaultSeed^(uint64(i+1)*0x9E3779B97F4A7C15), rp.FaultProfile)
		}
		node := NewNode(d.Env(), fmt.Sprintf("n%03d", i), rp.Kind, np)
		out := k.AddNode(i, d, node.NIC.InjectFrame)
		node.NIC.AttachUplink(out)
		r.Nodes = append(r.Nodes, node)
	}
	return r
}

// OpenConn establishes a TCP-lite connection from client to server
// (node indices). dataPlane selects engine ownership exactly as
// Cluster.OpenConn does; connection IDs are rack-global so a node can
// carry connections to many peers.
func (r *Rack) OpenConn(client, server int, dataPlane bool) Conn {
	r.nextConn++
	id := r.nextConn
	key := [2]int{client, server}
	ps := r.ports[key]
	if ps == nil {
		ps = &PortSpace{}
		r.ports[key] = ps
	}
	srvPort, cliPort := ps.AllocPair()
	serverFlow := ether.Flow{
		SrcMAC: r.Topo.NodeMAC(server), DstMAC: r.Topo.NodeMAC(client),
		SrcIP: r.Topo.NodeIP(server), DstIP: r.Topo.NodeIP(client),
		SrcPort: srvPort, DstPort: cliPort,
	}
	s, c := r.Nodes[server], r.Nodes[client]
	engineOwned := dataPlane && s.Kind == DCSCtrl
	if engineOwned {
		s.Driver.Connect(id, serverFlow, 0, 0)
	} else {
		s.OpenHostConn(id, serverFlow)
	}
	if dataPlane && c.Kind == DCSCtrl {
		c.Driver.Connect(id, serverFlow.Reverse(), 0, 0)
	} else {
		c.OpenHostConn(id, serverFlow.Reverse())
	}
	return Conn{ID: id, ServerData: engineOwned}
}

// NodeSend transmits payload bytes from a node on a host-terminated
// connection. The calling process must run on the node's own domain
// Env (spawn it via r.Nodes[node].Env).
func (r *Rack) NodeSend(p *sim.Proc, node int, conn Conn, payload []byte) {
	n := r.Nodes[node]
	buf := n.allocHost(uint64(len(payload)) + 4096)
	n.MM.Write(buf, payload)
	n.hostNetSend(p, trace.NewBreakdown(), conn.ID, buf, len(payload))
}

// NodeRecv blocks until the node has received want bytes on the
// connection and returns them. Same domain-affinity rule as NodeSend.
func (r *Rack) NodeRecv(p *sim.Proc, node int, conn Conn, want int) []byte {
	return r.Nodes[node].hostNetRecv(p, trace.NewBreakdown(), conn.ID, want)
}

// Run executes the rack to quiescence (or to horizon; negative runs to
// exhaustion) and returns the final window end.
func (r *Rack) Run(horizon sim.Time) sim.Time { return r.Kernel.Run(horizon) }

// Close releases every shard domain's environment (see sim.Env.Close):
// the nodes' parked processes are unwound. The rack cannot run again.
func (r *Rack) Close() {
	for _, d := range r.Kernel.Domains() {
		d.Env().Close()
	}
}

// Stats returns the shard kernel's synchronization counters.
func (r *Rack) Stats() shard.Stats { return r.Kernel.Stats() }

// FabricStats returns delivered frames, delivered wire bytes, and
// unroutable drops on the switched fabric.
func (r *Rack) FabricStats() (frames, wireBytes, drops int64) { return r.Fabric.Stats() }

var _ nic.Uplink = (*shard.Outbox)(nil)
