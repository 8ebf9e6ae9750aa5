package ether

import "dcsctrl/internal/sim/snap"

// Snap codes the flow state machine (DESIGN.md §17). Both fields are
// schedule state — the phase decides whether the next burst collapses
// to a flow segment — so checkpoints must carry them.
func (s *FlowState) Snap(c *snap.Codec) {
	snap.Word(c, &s.phase)
	c.Int(&s.runs)
}
