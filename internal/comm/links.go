package comm

// recordRoute charges a message's bytes to every directed link on its
// dimension-ordered route, looked up in the World's route table. Each
// rank accumulates into its own ledger, indexed by the table's link
// numbering (no sharing); LinkLoads merges after Run. The resulting
// per-link loads are what the Figure 1 task mapping optimizes on the
// real machine — the deterministic clock model has no contention, so
// congestion shows up here rather than in simulated time.
func (c *Comm) recordRoute(src int, bytes int) {
	for _, l := range c.world.routes.Route(src, c.rank) {
		c.linkLoad[l] += uint64(bytes)
	}
}

// LinkLoads merges the per-rank link ledgers of a finished run and
// returns the maximum and total bytes carried by any single directed
// link, plus the number of distinct links used.
func LinkLoads(comms []*Comm) (maxBytes, totalBytes uint64, links int) {
	if len(comms) == 0 {
		return 0, 0, 0
	}
	merged := make([]uint64, len(comms[0].linkLoad))
	for _, c := range comms {
		for l, v := range c.linkLoad {
			merged[l] += v
		}
	}
	for _, v := range merged {
		if v == 0 {
			continue
		}
		links++
		totalBytes += v
		if v > maxBytes {
			maxBytes = v
		}
	}
	return maxBytes, totalBytes, links
}
