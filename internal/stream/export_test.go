package stream

import "math/bits"

// Hooks for the external stream_test package, whose tests import packages
// that import stream themselves (internal/wire).

// IndexDoublings returns how many times each directory stripe's index has
// doubled.
func (ea *EpochAccumulator) IndexDoublings() []int {
	out := make([]int, len(ea.stripes))
	for i := range ea.stripes {
		st := &ea.stripes[i]
		st.mu.Lock()
		out[i] = bits.Len(uint(len(st.index)/initSlots)) - 1
		st.mu.Unlock()
	}
	return out
}

var (
	MaxRelDiff     = maxRelDiff
	WeightsMaxDiff = weightsMaxDiff
)
