package fault

import "dcsctrl/internal/sim/snap"

// Checkpoint support (DESIGN.md §17). The injector's schedule (seed +
// profile) is configuration — the restore target is built with the
// identical injector — so the snapshot verifies it and carries only
// the mutable part: each site's PRNG position and draw/fire counters.
// Coding iterates the registered site list (stable order), never the
// streams map, so encode order cannot leak map iteration order.

// Snap codes the per-site stream positions. Sites without a stream
// (absent from the profile) code a presence bit of zero.
func (in *Injector) Snap(c *snap.Codec) error {
	c.Expect("fault: injector seed", in.seed)
	c.Expect("fault: injector profile", in.profile.Name)
	sites := Sites()
	c.Len("fault: sites", len(sites))
	for _, s := range sites {
		c.Expect("fault: site", string(s))
		st, ok := in.streams[s]
		c.Expect("fault: site "+string(s)+" stream presence", ok)
		if ok && c.Err() == nil {
			c.U64(&st.state)
			c.I64(&st.draws)
			c.I64(&st.hits)
		}
	}
	return c.Err()
}
