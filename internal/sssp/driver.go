package sssp

import (
	"math"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/localindex"
	"repro/internal/partition"
	"repro/internal/search"
)

// rankState is one rank's Δ-stepping search state.
type rankState struct {
	lo    uint32
	n     int
	opts  Options
	D     []uint32 // tentative distances of owned vertices
	delta uint32
	// buckets maps bucket index -> member set. Members whose distance
	// has since improved to another bucket are stale and filtered
	// lazily; a drained bucket is deleted.
	buckets map[uint32]frontier.Frontier
	// settled marks owned vertices already relaxed during the current
	// bucket (their light edges were expanded); a vertex relaxed again
	// in the same bucket is a re-settle.
	settled *localindex.Bitset
	// removed collects, in drain order, the distinct vertices the
	// current bucket settled — the heavy phase's active set, and exactly
	// the bits set in settled.
	removed []uint32
	// active, dists and heavy are per-run buffers behind the active list
	// (drain, apply), its distances (distsOf) and the sorted heavy set;
	// idxs is localMinBucket's sorted bucket-index scratch.
	active, dists, heavy, idxs []uint32
}

func (s *rankState) bucketOfDist(d uint32) uint32 { return bucketOf(d, s.delta) }

// insert places an owned vertex in the bucket of its (new) distance.
func (s *rankState) insert(gv uint32, d uint32) {
	b := s.bucketOfDist(d)
	f, ok := s.buckets[b]
	if !ok {
		f = search.NewFrontier(s.lo, s.n)
		s.buckets[b] = f
	}
	f.Add(gv)
}

// localMinBucket returns the smallest bucket index with a live member
// (noBucket if none), deleting the fully-stale buckets below it. The
// indices are scanned in ascending order — not map order — so the
// scanned-item count, and therefore the simulated clock it is charged
// to, is determined by the input alone.
const noBucket = uint64(math.MaxUint64)

func (s *rankState) localMinBucket() (min uint64, scanned int) {
	min = noBucket
	s.idxs = s.sortedBuckets(s.idxs[:0])
	for _, idx := range s.idxs {
		f := s.buckets[idx]
		live := false
		for _, gv := range f.Vertices() {
			scanned++
			if s.bucketOfDist(s.D[gv-s.lo]) == idx {
				live = true
				break
			}
		}
		if live {
			return uint64(idx), scanned // ascending: first live is the min
		}
		delete(s.buckets, idx)
	}
	return min, scanned
}

// sortedBuckets appends the bucket indices, ascending, to idxs.
func (s *rankState) sortedBuckets(idxs []uint32) []uint32 {
	for idx := range s.buckets {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	return idxs
}

// drain removes bucket k and returns its live members ascending (valid
// until the next drain or apply).
func (s *rankState) drain(k uint32) []uint32 {
	s.active = s.active[:0]
	f, ok := s.buckets[k]
	if !ok {
		return s.active
	}
	delete(s.buckets, k)
	f.Iterate(func(gv uint32) {
		if s.bucketOfDist(s.D[gv-s.lo]) == k {
			s.active = append(s.active, gv)
		}
	})
	return s.active
}

// distsOf gathers the current distances of an active list (valid until
// the next call).
func (s *rankState) distsOf(vs []uint32) []uint32 {
	s.dists = s.dists[:0]
	for _, gv := range vs {
		s.dists = append(s.dists, s.D[gv-s.lo])
	}
	return s.dists
}

// unsettle clears the per-bucket settle marks through the removed list,
// which names exactly the set bits, and empties the list.
func (s *rankState) unsettle() {
	for _, gv := range s.removed {
		s.settled.Clear(gv - s.lo)
	}
	s.removed = s.removed[:0]
}

// settle marks the active list as relaxed within the current bucket,
// counting re-settles and extending the heavy-phase removed set.
func (s *rankState) settle(vs []uint32, rec *epochRec) {
	for _, gv := range vs {
		if s.settled.TestAndSet(gv - s.lo) {
			rec.resettles++
		} else {
			s.removed = append(s.removed, gv)
		}
	}
}

// apply processes the relax requests delivered to this rank: every
// improvement updates the distance and re-buckets the vertex. It
// returns the vertices whose new distance lands back in bucket k (the
// next light sub-round's active set, ascending — requests arrive
// deduplicated and sorted). The previous active list is dead once its
// round's requests are in, so the new one reuses its buffer.
func (s *rankState) apply(rvs, rds []uint32, k uint32, rec *epochRec) []uint32 {
	again := s.active[:0]
	for i, gv := range rvs {
		li := gv - s.lo
		if rds[i] >= s.D[li] {
			continue
		}
		s.D[li] = rds[i]
		rec.relax++
		if b := s.bucketOfDist(rds[i]); b == k {
			again = append(again, gv)
		} else {
			s.insert(gv, rds[i])
		}
	}
	s.active = again
	return again
}

// runRank executes the Δ-stepping schedule on one rank, its tentative
// distances kept in D — the rank's block of the Result's Dist. All
// control decisions (bucket choice, loop exits, Δ, cancellation) are
// globally reduced, so every rank runs the same epoch sequence. A
// non-nil *search.Canceled return means the run stopped cooperatively
// with D holding partial tentative distances.
func runRank(c *comm.Comm, l partition.View, e *engine2D, opts Options, D []uint32) ([]epochRec, *rankState, *search.Canceled) {
	model := c.Model()
	lo, hi := l.OwnedRange(c.Rank())
	n := int(hi - lo)
	st := &rankState{
		lo:      uint32(lo),
		n:       n,
		opts:    opts,
		D:       D,
		buckets: map[uint32]frontier.Frontier{},
		settled: localindex.NewBitset(n),
	}
	var recs []epochRec
	var allLight bool
	tagSeq := 0
	if opts.Restore != nil {
		// Resume from a snapshot: load the distances, buckets, Δ, and
		// transport state and skip the charged initialization (its cost
		// lives in the restored ledgers).
		opts.Resume(c, "sssp", opts.fingerprint(l), func(dec *checkpoint.Dec) {
			allLight, tagSeq = dec.Bool(), dec.Int()
			st.decode(dec)
			recs = search.DecodeRecs(dec, decodeEpochRec)
		})
	} else {
		for i := range st.D {
			st.D[i] = graph.MaxDist
		}

		// Effective Δ: the requested width, or max(1, maxW/avgDegree).
		maxW := uint32(c.AllReduceMax(uint64(e.maxWeight())))
		st.delta = opts.Delta
		if st.delta == 0 {
			entries := c.AllReduceSum(uint64(e.localEdgeEntries())) // 2m
			avgDeg := entries / uint64(max(1, l.N))
			if avgDeg < 1 {
				avgDeg = 1
			}
			st.delta = maxW / uint32(avgDeg)
			if st.delta < 1 {
				st.delta = 1
			}
		}
		// With every edge light the heavy phases are empty; skip them
		// (uniformly — maxW and Δ are global).
		allLight = st.delta == DeltaInf || maxW <= st.delta

		if opts.Source >= lo && opts.Source < hi {
			st.D[opts.Source-lo] = 0
			st.insert(uint32(opts.Source), 0)
		}
	}
	for {
		if opts.Checkpoint.Enabled() && opts.Restore == nil && len(recs) >= opts.Checkpoint.At {
			// Halt at the first bucket boundary with >= At completed
			// epochs: every rank has appended the same number of records,
			// so the condition fires uniformly, and the per-bucket
			// scratch state (settled, removed, active) is dead here.
			opts.Halt(c, "sssp", opts.fingerprint(l), func(enc *checkpoint.Enc) {
				enc.Bool(allLight)
				enc.Int(tagSeq)
				st.encode(enc)
				search.EncodeRecs(enc, recs, encodeEpochRec)
			})
			return recs, st, nil
		}
		if cxl := opts.Poll(c.AllReduceOr, c.Clock(), "epoch", len(recs)); cxl != nil {
			return recs, st, cxl
		}
		min, scanned := st.localMinBucket()
		c.ChargeItems(scanned, model.VertexCost)
		k64 := c.AllReduceMin(min)
		if k64 == noBucket {
			return recs, st, nil
		}
		k := uint32(k64)
		active := st.drain(k)
		st.unsettle()
		for {
			if cxl := opts.Poll(c.AllReduceOr, c.Clock(), "epoch", len(recs)); cxl != nil {
				return recs, st, cxl
			}
			if c.AllReduceSum(uint64(len(active))) == 0 {
				break
			}
			rec := epochRec{bucket: k, phase: PhaseLight, active: len(active)}
			tme := rec.begin(c, e)
			st.settle(active, &rec)
			rvs, rds := e.scatter(active, st.distsOf(active), true, st.delta, tagSeq*64, &rec)
			tagSeq++
			c.ChargeItems(len(rvs), model.VertexCost)
			active = st.apply(rvs, rds, k, &rec)
			rec.end(tme)
			recs = append(recs, rec)
		}
		if !allLight {
			st.heavy = append(st.heavy[:0], st.removed...)
			heavy, _ := localindex.SortSet(st.heavy)
			rec := epochRec{bucket: k, phase: PhaseHeavy, active: len(heavy)}
			tme := rec.begin(c, e)
			rvs, rds := e.scatter(heavy, st.distsOf(heavy), false, st.delta, tagSeq*64, &rec)
			tagSeq++
			c.ChargeItems(len(rvs), model.VertexCost)
			st.apply(rvs, rds, k, &rec) // heavy targets always land in later buckets
			rec.end(tme)
			recs = append(recs, rec)
		}
	}
}

// countBuckets derives the drained-bucket count from an epoch trace:
// one per distinct (bucket, first-epoch) run.
func countBuckets(recs []EpochStats) int {
	n := 0
	for i, r := range recs {
		if i == 0 || r.Bucket != recs[i-1].Bucket {
			n++
		}
	}
	return n
}

// rankOut is what one rank's body hands back to the harness besides
// the distances it wrote into the answer (search.Owned).
type rankOut struct {
	recs  []epochRec
	delta uint32
}

// Run2D executes distributed Δ-stepping over the 2D edge partitioning
// (or, with a degenerate mesh, either 1D partitioning of Table 1).
// Unweighted stores run with unit weights.
func Run2D(w *comm.World, stores []*partition.Store2D, opts Options) (*Result, error) {
	l, err := search.CheckShape("sssp", w, stores)
	if err == nil {
		err = search.CheckVertex("sssp", "source", opts.Source, l.N)
	}
	if err == nil {
		err = opts.CheckRobustness("sssp", true)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{N: l.N, R: l.R, C: l.C, Dist: make([]uint32, l.N)}
	out, err := search.Run(w, &opts.Common, func(c *comm.Comm) (rankOut, *search.Canceled) {
		recs, st, cxl := runRank(c, l, newEngine2D(c, stores[c.Rank()], l, opts), opts, search.Owned(l, c.Rank(), res.Dist))
		return rankOut{recs, st.delta}, cxl
	})
	if err != nil {
		return nil, err
	}
	res.Wall, res.Delta = out.Wall, out.PerRank[0].delta
	mergeStats(res, out)
	res.BucketsDrained = countBuckets(res.PerEpoch)
	publishMetrics(opts.Metrics, res)
	return res, out.Err()
}
