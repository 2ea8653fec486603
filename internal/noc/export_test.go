package noc

import "math/bits"

// CheckAggregates exposes checkAggregates to the external test package,
// whose differential probes run it mid-run on the incremental arm.
func (s *Subnet) CheckAggregates() string { return s.checkAggregates() }

// AllocatedSlots counts the input VCs across the subnet whose front
// packet holds a downstream VC, per the allocation masks.
func (s *Subnet) AllocatedSlots() int {
	n := 0
	for _, w := range s.allocSlots {
		n += bits.OnesCount64(w)
	}
	return n
}
