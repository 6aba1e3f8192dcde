package localindex

import "slices"

// SortSet sorts s ascending and removes duplicates in place, returning
// the deduplicated slice and the number of duplicates removed. The
// duplicate count feeds the paper's redundancy-ratio metric (Fig. 7).
// It is the general-purpose merge for callers that know no id range;
// the engines' per-destination bins use Combiner instead.
func SortSet(s []uint32) ([]uint32, int) {
	if len(s) < 2 {
		return s, 0
	}
	slices.Sort(s)
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w], len(s) - w
}

// UnionInto appends the union of the ascending duplicate-free slices a
// and b to dst and returns the extended slice with the number of
// elements of b already present in a (the duplicates a union-fold hop
// eliminates). dst grows only when its spare capacity is short, so a
// caller that hands back the same scratch merges without allocating.
// That spare capacity must not overlap b, and may hold a only exactly
// len(b) words past len(dst): there the merge writes behind where it
// reads a, so a caller can write a set straight into the place its
// union lands.
//
// The merge is branch-free: each step writes min(a[i], b[j]) and
// advances whichever side (or both, on a duplicate) supplied it, so its
// cost does not depend on how the two sets interleave.
func UnionInto(dst, a, b []uint32) ([]uint32, int) {
	n := len(dst)
	dst = slices.Grow(dst, len(a)+len(b))
	out := dst[n : n+len(a)+len(b)]
	if len(a) > 0 && len(b) > 0 && b[len(b)-1] < a[0] {
		a, b = b, a
	}
	var i, j, k int
	if len(a) > 0 && len(b) > 0 && b[0] <= a[len(a)-1] {
		i, j, k = merge(out, a, b)
	}
	k += copy(out[k:], a[i:])
	k += copy(out[k:], b[j:])
	return dst[:n+k], len(a) + len(b) - k
}

// merge writes the ascending union of a and b to out until one side
// runs out, returning how far it read into each and wrote into out.
func merge(out, a, b []uint32) (i, j, k int) {
	for i < len(a) && j < len(b) && k < len(out) {
		x, y := a[i], b[j]
		out[k] = min(x, y)
		k++
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	return i, j, k
}

// UnionSorted is UnionInto on fresh memory sized to the inputs.
func UnionSorted(a, b []uint32) ([]uint32, int) {
	return UnionInto(make([]uint32, 0, len(a)+len(b)), a, b)
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
