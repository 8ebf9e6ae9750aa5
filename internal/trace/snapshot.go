package trace

import (
	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// Snap codes the account's window start and per-category busy map
// (DESIGN.md §17), categories sorted so encode order never leaks map
// iteration order.
func (a *CPUAccount) Snap(c *snap.Codec) error {
	snap.Word(c, &a.start)
	snap.Map(c, &a.busy, func(c *snap.Codec, k *Category) { c.Str((*string)(k)) }, snap.Word[sim.Time])
	return c.Err()
}
