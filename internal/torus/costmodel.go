package torus

// CostModel holds the constants of the LogGP-flavoured timing model used
// by the simulated ranks. All times are in seconds, bandwidth in bytes
// per second. The defaults are BlueGene/L-flavoured: 1.4 Gbit/s
// (175 MB/s) per link direction, a few microseconds of software latency,
// and per-item compute costs sized for a 700 MHz PowerPC 440 spending
// most of its time in hash probes (§4.2 of the paper notes profiling
// showed hashing of received vertices dominates).
//
// Absolute values are not calibrated against the paper's runs; the
// experiments reproduce shapes (scaling exponents, crossovers, ratios),
// which depend on the relative magnitudes only.
type CostModel struct {
	Name string

	// Communication.
	SendOverhead float64 // CPU time to post a send (o_s)
	RecvOverhead float64 // CPU time to complete a receive (o_r)
	HopLatency   float64 // per-hop wire+router latency (alpha)
	Bandwidth    float64 // per-link bandwidth in bytes/second (beta)
	TreeLatency  float64 // per-stage latency of barrier/allreduce trees

	// Computation, charged explicitly by the BFS code.
	EdgeCost   float64 // scanning one edge-list entry
	HashCost   float64 // one hash probe (global->local lookup)
	VertexCost float64 // processing one received frontier/neighbour vertex
}

// PresetBlueGeneL returns the default BlueGene/L-flavoured cost model.
// The per-item compute costs reflect a 700 MHz in-order PowerPC 440
// taking cache misses on nearly every hash probe (the paper's §4.2
// profiling: the code is memory-intensive and dominated by hashing of
// received vertices) — which is what makes communication a small
// fraction of execution time in Figure 4a.
func PresetBlueGeneL() CostModel {
	return CostModel{
		Name:         "bluegene-l",
		SendOverhead: 3e-6,
		RecvOverhead: 3e-6,
		HopLatency:   50e-9,
		Bandwidth:    175e6,
		TreeLatency:  2.5e-6,
		EdgeCost:     10e-9,
		HashCost:     120e-9,
		VertexCost:   80e-9,
	}
}

// PresetCluster returns a cost model standing in for MCR, the Quadrics
// Linux cluster the paper used for comparison: faster CPUs, higher
// point-to-point latency, flat (hop-insensitive) network.
func PresetCluster() CostModel {
	return CostModel{
		Name:         "cluster",
		SendOverhead: 4e-6,
		RecvOverhead: 4e-6,
		HopLatency:   0, // switched fabric: charge latency in overheads
		Bandwidth:    300e6,
		TreeLatency:  6e-6,
		EdgeCost:     2e-9,
		HashCost:     15e-9,
		VertexCost:   9e-9,
	}
}

// Transit returns the time a message of b bytes spends in the network
// between ranks that are h hops apart, excluding the endpoint overheads:
// cut-through (wormhole) routing, as on BlueGene/L — the message is
// serialized once and each hop adds only HopLatency.
func (m CostModel) Transit(h, b int) float64 {
	return m.HopLatency*float64(h) + float64(b)/m.Bandwidth
}
