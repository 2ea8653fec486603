package noc

// Sharded router phase: the subnet-level parallelism of ExecMode.Parallel is
// structurally load-imbalanced under Catnap's strict-priority selection
// (subnet 0 carries almost all traffic), so ExecMode.Shards additionally
// partitions each subnet's router phase spatially into contiguous
// row-bands stepped concurrently. Routers only read remote state that is
// stable for the whole phase (downstream power states, credits of their
// own output ports), and every cross-router effect — link traversals
// into another router's input wheel, credit returns, look-ahead wakeup
// signals, subnet-aggregate updates — is staged in the shard's commit
// queue and applied after the barrier in ascending (shard, router, port)
// order. That order is exactly the order the sequential phase performs
// the same writes, so the staged wheels, counters, and tracer events are
// bit-identical to sequential stepping at any shard count (the
// differential suite asserts it per cycle).

// bfmOp is a staged max-port-occupancy histogram move.
type bfmOp struct {
	from, to int32
}

// commitQueue buffers one shard's cross-router side effects during the
// sharded router phase. Each queue is written by exactly one shard task
// and drained single-threaded by Subnet.applyCommits; the backing arrays
// are truncated and reused, so a warmed-up queue never allocates.
type commitQueue struct {
	// arrivals land on the staged-link wheel at now+LinkDelay and pin the
	// destination router awake until then.
	arrivals []arrival
	// credits (Subnet.outCredits indices) / niCredits return at
	// now+CreditDelay; ejections land at now+LinkDelay. The delays are
	// phase constants, so entries carry no timestamp.
	credits   []int32
	niCredits []niCredit
	ejections []ejection
	// wakes are look-ahead wakeup requests for downstream routers a
	// blocked flit saw asleep. The sequential path wakes on the first
	// encounter only; applyCommits reproduces that by re-checking the
	// state per request in order.
	wakes []int32
	// idled lists routers whose last buffered flit traversed out this
	// phase (occupied-bit clear + lazy busy-streak end).
	idled []int32
	// bfm holds max-port-occupancy histogram moves in traversal order.
	bfm []bfmOp
	// events accumulates this shard's switching-activity deltas; buffered
	// is the (negative) subnet buffered-flit delta.
	events   PowerEvents
	buffered int
}

// reset truncates every staged list for reuse.
//
//catnap:hotpath once per (subnet, shard) per sharded cycle
func (cq *commitQueue) reset() {
	cq.arrivals = cq.arrivals[:0]
	cq.credits = cq.credits[:0]
	cq.niCredits = cq.niCredits[:0]
	cq.ejections = cq.ejections[:0]
	cq.wakes = cq.wakes[:0]
	cq.idled = cq.idled[:0]
	cq.bfm = cq.bfm[:0]
	cq.events = PowerEvents{}
	cq.buffered = 0
}

// shardPlan is a static partition of the mesh into contiguous row-bands.
// Band k covers rows [k*rows/count, (k+1)*rows/count); counts above the
// row count leave trailing bands empty, and counts that do not divide
// the rows evenly get bands differing by one row — both are fine, just
// imbalanced. Contiguity matters for determinism: ascending shard index
// equals ascending node id, so per-shard commit queues applied in shard
// order replay effects in exactly the sequential phase's node order.
type shardPlan struct {
	count int
	// shardOf[node] is the band owning that node.
	shardOf []int16
	// masks[k] selects band k's nodes out of a node-id bitmap word array
	// (same layout as Subnet.occBits).
	masks [][]uint64
}

//catnap:reset-covered Network.Reset tears sharding down via applyShards(0) before rebuilding, so plans never outlive the run that configured them
func newShardPlan(rows, cols, count int) *shardPlan {
	nodes := rows * cols
	words := (nodes + 63) / 64
	p := &shardPlan{
		count:   count,
		shardOf: make([]int16, nodes),
		masks:   make([][]uint64, count),
	}
	for k := range p.masks {
		p.masks[k] = make([]uint64, words)
	}
	for k := 0; k < count; k++ {
		lo := k * rows / count * cols
		hi := (k + 1) * rows / count * cols
		for n := lo; n < hi; n++ {
			p.shardOf[n] = int16(k)
			p.masks[k][n>>6] |= 1 << (uint(n) & 63)
		}
	}
	return p
}

// hasWork reports whether any of band k's routers is in the occupied
// bitmap occ.
//
//catnap:hotpath
func (p *shardPlan) hasWork(occ []uint64, k int) bool {
	for i, m := range p.masks[k] {
		if occ[i]&m != 0 {
			return true
		}
	}
	return false
}

// shardTask names one (subnet, shard) unit of router-phase work.
type shardTask struct {
	sub   int32
	shard int32
}

// applyShards is SetExecMode's sharding transition: it (re)builds or
// tears down the shard plan and per-subnet commit queues when the count
// changes. ExecMode.Shards partitions every subnet's router phase into k
// contiguous row-band shards executed concurrently on the network's
// worker pool, with all cross-router effects staged in per-shard commit
// queues and applied in a fixed order after the barrier. Results are
// bit-identical to sequential stepping at any k (the differential tests
// assert per-cycle state-hash equality), so k is purely a throughput
// knob: use it when load concentrates on few subnets and
// ExecMode.Parallel alone cannot spread the router phase across cores.
// k == 0 disables sharding; k == 1 keeps the staged machinery with a
// single band (useful for testing, pointless for speed); k above the
// mesh row count leaves trailing shards empty.
//
// Sharding composes with ExecMode.Parallel (per-subnet commit/power work
// then also fans out) and may be flipped mid-run between Steps. The
// reference scan path (ExecMode.ReferenceScan) takes precedence: while
// it is active the network steps unsharded.
//
// With sharding on, GatingPolicy, PowerTracer, and sink callbacks can be
// invoked from worker goroutines rather than the caller's goroutine (see
// SetExecMode's concurrency contract); the built-in policies are safe,
// custom implementations must be race-free.
func (n *Network) applyShards(k int) {
	if k == n.shardCount {
		return
	}
	n.shardCount = k
	if k == 0 {
		n.plan = nil
		for _, s := range n.subnets {
			s.shardQueues = nil
			s.shardBusy = nil
			for i := range s.routers {
				s.routers[i].cq = nil
			}
		}
		return
	}
	n.plan = newShardPlan(n.cfg.Rows, n.cfg.Cols, k)
	for _, s := range n.subnets {
		s.shardQueues = make([]commitQueue, k)
		s.shardBusy = make([]int32, k)
		for i := range s.routers {
			s.routers[i].cq = &s.shardQueues[n.plan.shardOf[i]]
		}
	}
}

// Shards returns the configured shard count (0 when sharding is off).
func (n *Network) Shards() int { return n.shardCount }

// stepSharded is Step's router+power stage when sharding is enabled:
// collect the non-empty (subnet, shard) tasks, run their router phases
// concurrently with staging on, then apply every commit queue in shard
// order and run the power phases. Commits must be applied before the
// power phase — a traversal that empties a router can make its sleep
// check due this very cycle when TIdleDetect is small.
//
// Dispatch goes through the network's reusable StepPool with the
// pre-bound shardFn/commitFn closures (zero allocations per cycle).
// Because the task list is built in ascending (subnet, shard) order and
// the busy set is stable under steady load, affine dispatch
// (ExecMode.ShardAffinity) keeps each shard's rows on the worker that
// touched them last cycle; ExecMode.StealBatch tunes how greedily idle
// workers take over a lagging worker's tail.
//
//catnap:hotpath the sharded per-cycle router+power stage
func (n *Network) stepSharded(now int64) {
	plan := n.plan
	tasks := n.shardTasks[:0]
	for si, s := range n.subnets {
		s.staging = true
		for k := 0; k < plan.count; k++ {
			s.shardBusy[k] = 0
			if plan.hasWork(s.occBits, k) {
				tasks = append(tasks, shardTask{sub: int32(si), shard: int32(k)})
			}
		}
	}
	n.shardTasks = tasks
	n.phaseNow = now
	n.pool.Run(len(tasks), n.affinity, n.stealBatch, n.shardFn)
	for _, s := range n.subnets {
		s.staging = false
	}
	if n.parallel {
		n.pool.Run(len(n.subnets), false, 1, n.commitFn)
		return
	}
	for _, s := range n.subnets {
		s.applyCommits(now)
	}
	for _, s := range n.subnets {
		s.powerPhase(now)
	}
}
