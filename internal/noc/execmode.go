package noc

// ExecMode is the network's complete execution-mode configuration: every
// knob that changes *how* a simulation executes without changing *what* it
// computes. All combinations produce bit-identical results (the
// differential suites assert it); the knobs trade constant factors and
// allocation behavior.
//
// The zero value is the conservative reference-friendly default:
// incremental stepping, no packet recycling, no idle fast-forward.
type ExecMode struct {
	// ReferenceScan selects the retained O(nodes) scan-based stepping
	// path instead of the incremental O(active) one. It also disables
	// idle fast-forward: the reference path is the baseline the skipping
	// path is differenced against.
	ReferenceScan bool
	// PacketRecycling enables per-NI packet freelists: once a packet's
	// tail flit ejects and every delivery sink has run, the Packet
	// struct is returned to its source NI's freelist and reused by a
	// later NewPacket there, taking the per-injection heap allocation
	// out of the steady-state loop. Off by default because it changes
	// NewPacket's contract: with recycling on, callers and sinks must
	// not retain (or read) a *Packet after its delivery callbacks
	// return — every field, including Payload, is reused. The Simulator
	// enables it; its traffic generators and system models never retain
	// packets.
	PacketRecycling bool
	// IdleSkip arms event-driven idle fast-forward: when the network is
	// fully quiescent, TrySkipIdle jumps simulated time directly to the
	// next staged event instead of stepping empty cycles one by one.
	IdleSkip bool
}

// SetExecMode applies an execution mode; it is the single
// execution-configuration surface. Mid-run flips are supported:
// idle-streak representations are converted and sleep checks re-armed as
// part of the transition.
func (n *Network) SetExecMode(m ExecMode) {
	n.recycle = m.PacketRecycling
	n.idleSkip = m.IdleSkip
	n.applyReferenceScan(m.ReferenceScan)
}

// ExecMode returns the currently applied execution mode.
func (n *Network) ExecMode() ExecMode {
	return ExecMode{
		ReferenceScan:   n.refScan,
		PacketRecycling: n.recycle,
		IdleSkip:        n.idleSkip,
	}
}
