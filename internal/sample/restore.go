package sample

import (
	"fmt"
	"math"

	"laqy/internal/rng"
)

// RestoreReservoir reconstructs a reservoir from persisted state: capacity
// k, tuple width, the represented weight, and the row-major tuple data
// (whose length must be a multiple of width and at most k·width). The
// restored reservoir continues sampling with gen.
func RestoreReservoir(k, width int, weight float64, data []int64, gen *rng.Lehmer64) (*Reservoir, error) {
	if k <= 0 || width <= 0 {
		return nil, fmt.Errorf("sample: restore with k=%d width=%d", k, width)
	}
	if len(data)%width != 0 {
		return nil, fmt.Errorf("sample: restore data length %d not a multiple of width %d", len(data), width)
	}
	if len(data) > k*width {
		return nil, fmt.Errorf("sample: restore data holds %d tuples, capacity is %d", len(data)/width, k)
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return nil, fmt.Errorf("sample: restore weight %v is not finite", weight)
	}
	if weight < float64(len(data)/width) {
		return nil, fmt.Errorf("sample: restore weight %v below stored tuple count %d", weight, len(data)/width)
	}
	return &Reservoir{k: k, width: width, weight: weight, data: data, gen: *gen}, nil
}

// Restore installs a reservoir as the stratum for key, replacing any
// existing one and adjusting the sample's total weight. The reservoir's
// width must match the sample schema.
func (b *Builder) Restore(key StratumKey, r *Reservoir) error {
	if r.Width() != len(b.schema) {
		return fmt.Errorf("sample: restoring width-%d reservoir into %d-column sample", r.Width(), len(b.schema))
	}
	if id := b.index.Find(&key); id >= 0 {
		b.weight -= b.res[id].Weight()
		b.res[id] = *r
	} else {
		b.add(&key, *r)
	}
	b.weight += r.Weight()
	return nil
}
