package noc

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/topology"
)

// saRequest is one input VC parked at the test router with its wormhole
// already allocated toward an output port.
type saRequest struct {
	in, vc, out, outVC int
	flits              int  // flits buffered; the packet is one flit longer, so no tail is buffered...
	single             bool // ...unless it is a single-flit packet, whose front flit is the tail
	late               bool // delivered one cycle later, so not yet eligible
	noCredit           bool // the downstream VC has no free slot
}

// saRotationRequests contend for East at the centre router of a 3x3 mesh:
// one from an input port that already granted a flit (on North, which
// allocates first), one without credit, one not yet eligible, one whose
// front flit is a tail, and three that can win.
var saRotationRequests = []saRequest{
	{in: int(topology.West), vc: 5, out: int(topology.North), outVC: 0, flits: 1, single: true},
	{in: int(topology.West), vc: 0, out: int(topology.East), outVC: 0, flits: 2},
	{in: int(topology.North), vc: 1, out: int(topology.East), outVC: 1, flits: 2},
	{in: int(topology.South), vc: 2, out: int(topology.East), outVC: 2, flits: 2, noCredit: true},
	{in: int(topology.Local), vc: 0, out: int(topology.East), outVC: 3, flits: 1, single: true},
	{in: int(topology.South), vc: 4, out: int(topology.East), outVC: 4, flits: 1, late: true},
	{in: int(topology.Local), vc: 3, out: int(topology.East), outVC: 5, flits: 2},
}

// saRotationRouter builds a network whose centre router holds
// saRotationRequests, returning it and the cycle at which the early
// requests are eligible.
func saRotationRouter(t *testing.T, mode ExecMode) (*Router, int64) {
	t.Helper()
	cfg := internalConfig()
	cfg.Rows, cfg.Cols, cfg.RegionDim = 3, 3, 3
	cfg.VCs = 6 // 5 ports x 6 VCs = 30 slots: the slot-mask path applies
	net, err := New(cfg, firstReady{})
	if err != nil {
		t.Fatal(err)
	}
	net.SetExecMode(mode)
	r := &net.subnets[0].routers[4]
	if !r.slotMask {
		t.Fatal("fixture lost the slot-mask path")
	}
	const t0 = 10
	for _, q := range saRotationRequests {
		n := q.flits + 1
		if q.single {
			n = 1
		}
		pkt := &Packet{Dst: 5, NumFlits: n}
		at := int64(t0)
		if q.late {
			at++
		}
		for s := 0; s < q.flits; s++ {
			f := makeFlit(pkt, s)
			f.nextPort = uint8(q.out)
			r.deliver(at, q.in, q.vc, f)
		}
		idx := q.in*cfg.VCs + q.vc
		vc := &r.slots[idx]
		vc.curPkt, vc.outPort, vc.outVC, vc.routeSet = pkt, q.out, int8(q.outVC), true
		r.out[q.out].busy[q.outVC] = true
		*r.alloc |= 1 << uint(idx)
		if q.noCredit {
			r.out[q.out].credits[q.outVC] = 0
		}
	}
	return r, t0 + int64(cfg.RouterDelay)
}

// TestIncrementalSARotation runs the incremental and the reference switch
// allocation on identical routers for every East round-robin position and
// requires the same grants, pointers, moved flits and blocked-cycle
// counts — the post-grant window the incremental path derives from the
// scan's pointer re-read included.
func TestIncrementalSARotation(t *testing.T) {
	slots := 5 * 6
	for rr := 0; rr < slots; rr++ {
		fast, now := saRotationRouter(t, ExecMode{})
		ref, _ := saRotationRouter(t, ExecMode{ReferenceScan: true})
		for _, r := range []*Router{fast, ref} {
			r.out[topology.East].rr = rr
			r.switchAllocate(now)
		}
		for idx := range fast.slots {
			if a, b := fast.slots[idx].count, ref.slots[idx].count; a != b {
				t.Errorf("rr %d slot %d: incremental left %d flits, reference %d", rr, idx, a, b)
			}
		}
		for o := range fast.out {
			if a, b := fast.out[o].rr, ref.out[o].rr; a != b {
				t.Errorf("rr %d output %d: incremental rr %d, reference %d", rr, o, a, b)
			}
		}
		fb, fg := fast.BlockingCounters()
		rb, rg := ref.BlockingCounters()
		if fg != rg || fb != rb {
			t.Errorf("rr %d: incremental moved %d blocked %d, reference moved %d blocked %d", rr, fg, fb, rg, rb)
		}
		if rg != 2 {
			t.Errorf("rr %d: reference moved %d flits, want 2 (North and East)", rr, rg)
		}
	}
}
