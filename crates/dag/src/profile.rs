//! Depth profiles — the quantity `W(d)` of the paper's Lemma 5.1.
//!
//! For a job `J` the paper defines `W(d)` as the number of subjobs with depth
//! *strictly greater than* `d`. Lemma 5.1 shows `OPT >= d + ceil(W(d)/m)` for
//! every depth `d` at which a node exists, and Corollary 5.4 shows this bound
//! is *tight* for out-forests released together:
//! `OPT = max_d (d + ceil(W(d)/m))`.

use crate::graph::JobGraph;

/// Precomputed per-depth statistics of one job.
///
/// ```
/// use flowtree_dag::{builder, DepthProfile};
///
/// // A star: root plus 6 leaves. W(0) = 7, W(1) = 6, W(2) = 0.
/// let profile = DepthProfile::new(&builder::star(6));
/// assert_eq!(profile.work_below(1), 6);
/// // Corollary 5.4: OPT on 3 processors = max(0 + ceil(7/3), 1 + ceil(6/3), 2) = 3.
/// assert_eq!(profile.opt_single_job(3), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthProfile {
    /// `count[d - 1]` = number of nodes with depth exactly `d` (depths start
    /// at 1 for sources, per the paper).
    count: Vec<u64>,
    /// `suffix[d]` = W(d) = number of nodes with depth strictly greater than
    /// `d`, for `d` in `0..=max_depth`.
    suffix: Vec<u64>,
}

impl DepthProfile {
    /// Build the profile of `g` from its cached depth counts (O(span), no
    /// graph walk).
    pub fn new(g: &JobGraph) -> Self {
        Self::from_counts(g.depth_counts().iter().map(|&c| c as u64).collect())
    }

    /// Build from an explicit per-node depth array (depths are 1-based).
    /// Public as the graph-free reference the dag proptests compare
    /// [`new`](Self::new)'s cached counts against.
    pub fn from_depths(depths: &[u32]) -> Self {
        let max_depth = depths.iter().copied().max().unwrap_or(0) as usize;
        let mut count = vec![0u64; max_depth];
        for &d in depths {
            debug_assert!(d >= 1, "depths are 1-based");
            count[(d - 1) as usize] += 1;
        }
        Self::from_counts(count)
    }

    /// Build from `count[d - 1]` = number of nodes at depth exactly `d`.
    fn from_counts(count: Vec<u64>) -> Self {
        let max_depth = count.len();
        // suffix[d] = sum of count[d..] = #nodes with depth > d.
        let mut suffix = vec![0u64; max_depth + 1];
        for d in (0..max_depth).rev() {
            suffix[d] = suffix[d + 1] + count[d];
        }
        DepthProfile { count, suffix }
    }

    /// Maximum depth `D` of any node (= the job's span for out-trees; for a
    /// general DAG it is also the span since depth is longest-path based).
    #[inline]
    pub fn max_depth(&self) -> u64 {
        self.count.len() as u64
    }

    /// Number of nodes at depth exactly `d` (1-based). Zero outside range.
    #[inline]
    pub fn nodes_at_depth(&self, d: u64) -> u64 {
        if d == 0 || d > self.max_depth() {
            0
        } else {
            self.count[(d - 1) as usize]
        }
    }

    /// `W(d)`: number of nodes with depth strictly greater than `d`.
    #[inline]
    pub fn work_below(&self, d: u64) -> u64 {
        if d >= self.max_depth() {
            0
        } else {
            self.suffix[d as usize]
        }
    }

    /// Total number of nodes, i.e. `W(0)`.
    #[inline]
    pub fn total_work(&self) -> u64 {
        self.suffix[0]
    }

    /// The paper's Lemma 5.1 lower bound for a single job on `m` processors:
    /// `max over d in [0, D] of (d + ceil(W(d)/m))`, which by Corollary 5.4 is
    /// *exactly* the optimal maximum flow of the job (out-forests) released
    /// alone at time 0.
    pub fn opt_single_job(&self, m: u64) -> u64 {
        Self::opt_of_depth_counts(&self.count, m)
    }

    /// [`opt_single_job`](Self::opt_single_job) of `g` without building a
    /// profile: it reads `g`'s cached depth counts and allocates nothing.
    /// The simulator's `LowerBound` probe calls this once per released job.
    pub fn opt_single_job_of(g: &JobGraph, m: u64) -> u64 {
        Self::opt_of_depth_counts(g.depth_counts(), m)
    }

    /// Lemma 5.1's `max over d in [0, D] of (d + ceil(W(d)/m))` from
    /// per-depth counts alone (`count[d]` holds the nodes at depth `d + 1`,
    /// the layout of [`JobGraph::depth_counts`]): walk the depths high to
    /// low, accumulating `W(d)`, the number of nodes strictly deeper than
    /// `d`. Counts summed per depth over jobs released together give the
    /// bound of their union without building it.
    pub fn opt_of_depth_counts<C: Copy + Into<u64>>(count: &[C], m: u64) -> u64 {
        assert!(m >= 1, "need at least one processor");
        let mut best = count.len() as u64;
        let mut w = 0u64;
        for d in (0..count.len()).rev() {
            w += count[d].into();
            best = best.max(d as u64 + w.div_ceil(m));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn chain(n: usize) -> JobGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.edge(i as u32, i as u32 + 1);
        }
        b.build().unwrap()
    }

    /// Root with k leaf children.
    fn star(k: usize) -> JobGraph {
        let mut b = GraphBuilder::new(k + 1);
        for i in 1..=k {
            b.edge(0, i as u32);
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_profile() {
        let p = DepthProfile::new(&chain(5));
        assert_eq!(p.max_depth(), 5);
        for d in 1..=5 {
            assert_eq!(p.nodes_at_depth(d), 1);
        }
        assert_eq!(p.work_below(0), 5);
        assert_eq!(p.work_below(3), 2);
        assert_eq!(p.work_below(5), 0);
        assert_eq!(p.work_below(99), 0);
    }

    #[test]
    fn graph_opt_matches_profile_opt() {
        use crate::builder::complete_kary;
        for g in [chain(1), chain(7), star(6), complete_kary(2, 4), complete_kary(3, 3)] {
            let p = DepthProfile::new(&g);
            for m in 1..=9 {
                assert_eq!(DepthProfile::opt_single_job_of(&g, m), p.opt_single_job(m), "m={m}");
            }
        }
    }

    #[test]
    fn chain_opt_is_span_regardless_of_m() {
        let p = DepthProfile::new(&chain(7));
        for m in 1..=8 {
            assert_eq!(p.opt_single_job(m), 7);
        }
    }

    #[test]
    fn star_profile_and_opt() {
        let p = DepthProfile::new(&star(6));
        assert_eq!(p.max_depth(), 2);
        assert_eq!(p.nodes_at_depth(1), 1);
        assert_eq!(p.nodes_at_depth(2), 6);
        // m=1: run root then 6 leaves -> 7 steps. Formula: d=0: 0+7=7.
        assert_eq!(p.opt_single_job(1), 7);
        // m=3: root, then ceil(6/3)=2 -> 3. d=1: 1+2=3, d=0: ceil(7/3)=3.
        assert_eq!(p.opt_single_job(3), 3);
        // m=6: root then all leaves: 2.
        assert_eq!(p.opt_single_job(6), 2);
        // m huge: still 2 (span bound).
        assert_eq!(p.opt_single_job(1000), 2);
    }

    #[test]
    fn single_node_profile() {
        let g = GraphBuilder::new(1).build().unwrap();
        let p = DepthProfile::new(&g);
        assert_eq!(p.max_depth(), 1);
        assert_eq!(p.total_work(), 1);
        assert_eq!(p.opt_single_job(1), 1);
        assert_eq!(p.opt_single_job(16), 1);
    }

    #[test]
    fn work_below_is_monotone_nonincreasing() {
        let p = DepthProfile::new(&star(9));
        let mut prev = u64::MAX;
        for d in 0..=p.max_depth() + 2 {
            let w = p.work_below(d);
            assert!(w <= prev);
            prev = w;
        }
    }

    #[test]
    fn opt_at_least_span_and_work_bounds() {
        // "Broom": chain of 4, last node has 5 children.
        let mut b = GraphBuilder::new(9);
        b.edge(0, 1).edge(1, 2).edge(2, 3);
        for leaf in 4..9 {
            b.edge(3, leaf);
        }
        let g = b.build().unwrap();
        let p = DepthProfile::new(&g);
        for m in 1..=10u64 {
            let opt = p.opt_single_job(m);
            assert!(opt >= g.span(), "span bound violated for m={m}");
            assert!(opt >= g.work().div_ceil(m), "work bound violated for m={m}");
        }
        // m=2: depth 4 prefix is a chain, then 5 leaves -> 4 + ceil(5/2) = 7.
        assert_eq!(p.opt_single_job(2), 7);
    }
}
