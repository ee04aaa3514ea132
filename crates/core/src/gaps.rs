//! The gap vector `G` and the search-space bounds it yields (§5.3).
//!
//! `G` stores, in increasing order, the positions of non-adjacent tuple
//! pairs in the sorted ITA relation. We store each break as the *prefix
//! length* `g`: tuples `0..g` (0-based) cannot merge with tuples `g..`.
//! (The paper's 1-based `G_m = l` with `s_l ⊀ s_{l+1}` equals our `g = l`.)
//!
//! Two bounds prune the DP (Examples 14/15):
//!
//! * `imax(k)`: the longest prefix reducible to `k` tuples — prefixes with
//!   more than `k − 1` internal breaks give `E_{k,i} = ∞` and are skipped.
//! * `jmin(i)`: the rightmost break below `i` — merging `s_{j+1..i}` into
//!   one tuple crosses a break (cost ∞) for any smaller `j`.

use pta_temporal::SequentialRelation;

/// The positions of non-adjacent tuple pairs, as prefix lengths.
#[derive(Debug, Clone, PartialEq)]
pub struct GapVector {
    breaks: Vec<usize>,
    n: usize,
}

impl GapVector {
    /// Scans `input` for non-adjacent consecutive pairs (Def. 2).
    pub fn build(input: &SequentialRelation) -> Self {
        Self::build_with_policy(input, crate::policy::GapPolicy::Strict)
    }

    /// Scans `input` for pairs that may not merge under `policy` — the §8
    /// gap-tolerant extension widens runs by bridging small holes.
    pub fn build_with_policy(input: &SequentialRelation, policy: crate::policy::GapPolicy) -> Self {
        let n = input.len();
        let breaks = (0..n.saturating_sub(1))
            .filter(|&i| !policy.mergeable(input, i))
            .map(|i| i + 1)
            .collect();
        Self { breaks, n }
    }

    /// Constructs from raw break prefix lengths (ascending, `0 < g < n`).
    /// Intended for tests.
    pub fn from_breaks(breaks: Vec<usize>, n: usize) -> Self {
        debug_assert!(breaks.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(breaks.iter().all(|&g| g > 0 && g < n));
        Self { breaks, n }
    }

    /// Number of breaks `|G|`.
    pub fn count(&self) -> usize {
        self.breaks.len()
    }

    /// The break positions (prefix lengths), ascending.
    pub fn breaks(&self) -> &[usize] {
        &self.breaks
    }

    /// The maximal gap-free runs as tuple ranges `lo..hi`, in order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let starts = std::iter::once(0).chain(self.breaks.iter().copied());
        let ends = self.breaks.iter().copied().chain(std::iter::once(self.n));
        starts.zip(ends).map(|(lo, hi)| lo..hi).filter(|r| !r.is_empty())
    }

    /// The smallest reachable reduction size `cmin = |G| + 1` (0 when the
    /// relation is empty).
    pub fn cmin(&self) -> usize {
        if self.n == 0 {
            0
        } else {
            self.breaks.len() + 1
        }
    }

    /// The longest prefix reducible to `k ≥ 1` tuples: `G_k` when
    /// `k ≤ |G|`, else `n` (Example 14).
    pub fn imax(&self, k: usize) -> usize {
        debug_assert!(k >= 1);
        if k <= self.breaks.len() {
            self.breaks[k - 1]
        } else {
            self.n
        }
    }

    /// The rightmost break strictly below prefix length `i`, if any
    /// (Example 15). Binary search, `O(log |G|)`.
    pub fn rightmost_break_below(&self, i: usize) -> Option<usize> {
        let idx = self.breaks.partition_point(|&g| g < i);
        (idx > 0).then(|| self.breaks[idx - 1])
    }

    /// Number of breaks strictly below prefix length `i`.
    pub fn breaks_below(&self, i: usize) -> usize {
        self.breaks.partition_point(|&g| g < i)
    }

    /// Does merging the tuple range `lo..hi` (0-based, half-open) into one
    /// tuple cross a break?
    pub fn range_crosses_break(&self, lo: usize, hi: usize) -> bool {
        // A break at prefix length g separates tuples g−1 and g; the range
        // crosses it iff lo < g < hi.
        self.breaks_below(hi) > self.breaks_below(lo + 1)
    }

    /// Number of breaks strictly inside `(lo, hi)` — cuts a partition of
    /// the tuple subrange `lo..hi` is forced to take.
    pub fn breaks_in(&self, lo: usize, hi: usize) -> usize {
        self.breaks_below(hi).saturating_sub(self.breaks_below(lo + 1))
    }

    /// The leftmost break strictly above prefix length `i`, if any —
    /// the `jmin` bound mirrored for suffix (backward) DP rows.
    pub fn leftmost_break_above(&self, i: usize) -> Option<usize> {
        self.breaks.get(self.breaks.partition_point(|&g| g <= i)).copied()
    }

    /// Subrange version of [`GapVector::imax`]: the longest prefix of the
    /// tuple subrange `lo..hi` reducible to `k ≥ 1` tuples, as an absolute
    /// prefix length. Equals the `k`-th break above `lo` when at least `k`
    /// breaks lie inside `(lo, hi)`, else `hi`.
    pub fn imax_within(&self, k: usize, lo: usize, hi: usize) -> usize {
        debug_assert!(k >= 1);
        let first = self.breaks.partition_point(|&g| g <= lo);
        match self.breaks.get(first + k - 1) {
            Some(&g) if g < hi => g,
            _ => hi,
        }
    }

    /// Mirror of [`GapVector::imax_within`] for suffix DP rows: the
    /// smallest `i ≥ lo` whose suffix `i..hi` is reducible to `k ≥ 1`
    /// tuples. Equals the `k`-th break *below* `hi` when at least `k`
    /// breaks lie inside `(lo, hi)`, else `lo`.
    pub fn imin_within(&self, k: usize, lo: usize, hi: usize) -> usize {
        debug_assert!(k >= 1);
        let last = self.breaks.partition_point(|&g| g < hi);
        if last < k {
            return lo;
        }
        match self.breaks.get(last - k) {
            Some(&g) if g > lo => g,
            _ => lo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_temporal::{GroupKey, SequentialBuilder, TimeInterval, Value};

    fn fig1c() -> SequentialRelation {
        let mut b = SequentialBuilder::new(1);
        let rows = [
            ("A", 1, 2, 800.0),
            ("A", 3, 3, 600.0),
            ("A", 4, 4, 500.0),
            ("A", 5, 6, 350.0),
            ("A", 7, 7, 300.0),
            ("B", 4, 5, 500.0),
            ("B", 7, 8, 500.0),
        ];
        for (g, a, bb, v) in rows {
            b.push(GroupKey::new(vec![Value::str(g)]), TimeInterval::new(a, bb).unwrap(), &[v])
                .unwrap();
        }
        b.build()
    }

    /// Example 13: G = ⟨5, 6⟩ for the running example.
    #[test]
    fn example_13_gap_vector() {
        let g = GapVector::build(&fig1c());
        assert_eq!(g.breaks(), &[5, 6]);
        assert_eq!(g.cmin(), 3);
    }

    /// Example 14: imax(1) = 5, imax(2) = 6, unbounded for k ≥ 3.
    #[test]
    fn example_14_imax() {
        let g = GapVector::build(&fig1c());
        assert_eq!(g.imax(1), 5);
        assert_eq!(g.imax(2), 6);
        assert_eq!(g.imax(3), 7);
        assert_eq!(g.imax(4), 7);
    }

    /// Example 15: computing E_{3,6}, the rightmost break below 6 is 5.
    #[test]
    fn example_15_jmin() {
        let g = GapVector::build(&fig1c());
        assert_eq!(g.rightmost_break_below(6), Some(5));
        assert_eq!(g.rightmost_break_below(5), None);
        assert_eq!(g.rightmost_break_below(7), Some(6));
    }

    #[test]
    fn crossing_detection() {
        let g = GapVector::from_breaks(vec![5, 6], 7);
        assert!(!g.range_crosses_break(0, 5)); // s1..s5 is one segment
        assert!(g.range_crosses_break(4, 6)); // s5 and s6 are split by g=5
        assert!(g.range_crosses_break(3, 7)); // crosses both
        assert!(!g.range_crosses_break(5, 6)); // s6 alone
        assert!(g.range_crosses_break(5, 7)); // s6, s7 split by g=6
    }

    #[test]
    fn no_gaps_means_cmin_one() {
        let mut b = SequentialBuilder::new(1);
        for i in 0..4i64 {
            b.push(GroupKey::empty(), TimeInterval::instant(i).unwrap(), &[i as f64]).unwrap();
        }
        let g = GapVector::build(&b.build());
        assert_eq!(g.count(), 0);
        assert_eq!(g.cmin(), 1);
        assert_eq!(g.imax(1), 4);
        assert_eq!(g.rightmost_break_below(4), None);
    }

    #[test]
    fn empty_relation_has_cmin_zero() {
        let g = GapVector::build(&SequentialRelation::empty(1));
        assert_eq!(g.cmin(), 0);
    }

    #[test]
    fn subrange_bounds_reduce_to_full_range_bounds() {
        let g = GapVector::from_breaks(vec![5, 6], 7);
        for k in 1..=4 {
            assert_eq!(g.imax_within(k, 0, 7), g.imax(k));
        }
        assert_eq!(g.breaks_in(0, 7), 2);
        assert_eq!(g.breaks_in(0, 6), 1);
        assert_eq!(g.breaks_in(5, 7), 1);
        assert_eq!(g.breaks_in(5, 6), 0);
        assert_eq!(g.leftmost_break_above(0), Some(5));
        assert_eq!(g.leftmost_break_above(5), Some(6));
        assert_eq!(g.leftmost_break_above(6), None);
    }

    #[test]
    fn subrange_bounds_respect_the_window() {
        let g = GapVector::from_breaks(vec![2, 5, 8], 10);
        // Window (3, 10): internal breaks are 5 and 8.
        assert_eq!(g.breaks_in(3, 10), 2);
        assert_eq!(g.imax_within(1, 3, 10), 5);
        assert_eq!(g.imax_within(2, 3, 10), 8);
        assert_eq!(g.imax_within(3, 3, 10), 10);
        assert_eq!(g.imin_within(1, 3, 10), 8);
        assert_eq!(g.imin_within(2, 3, 10), 5);
        assert_eq!(g.imin_within(3, 3, 10), 3);
        // A break sitting exactly on a window edge is not internal.
        assert_eq!(g.breaks_in(2, 8), 1);
        assert_eq!(g.imax_within(1, 2, 8), 5);
        assert_eq!(g.imin_within(1, 2, 8), 5);
        assert_eq!(g.imin_within(2, 2, 8), 2);
    }
}
