package gpu

import (
	"fmt"

	"dcsctrl/internal/sim/snap"
)

// Snap codes the device state (DESIGN.md §17). A quiescent GPU runs
// no kernel and no copy, so the state is the two resource
// accumulators and the counters. VRAM content is captured by the
// memory-map snapshot.
func (g *GPU) Snap(c *snap.Codec) error {
	if err := snap.All(c, g.copyEng, g.smUnits); err != nil {
		return fmt.Errorf("gpu: %s: %w", g.Name, err)
	}
	c.I64(&g.kernels)
	c.I64(&g.copied)
	return c.Err()
}
