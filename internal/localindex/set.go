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

// UnionSorted merges two ascending duplicate-free slices into a new
// ascending duplicate-free slice, returning it and the number of
// elements of b that were already present in a (the duplicates a
// union-fold hop eliminates).
func UnionSorted(a, b []uint32) (out []uint32, dups int) {
	out = make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
			dups++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, dups
}

// UnionInto unions sorted duplicate-free src into dst (also sorted,
// duplicate-free), reusing dst's backing array when possible. Returns
// the union and the duplicate count.
func UnionInto(dst, src []uint32) ([]uint32, int) {
	if len(src) == 0 {
		return dst, 0
	}
	if len(dst) == 0 {
		return append(dst, src...), 0
	}
	// Fast path: disjoint ranges.
	if dst[len(dst)-1] < src[0] {
		return append(dst, src...), 0
	}
	out, dups := UnionSorted(dst, src)
	return out, dups
}
