//! Depth profiles — the quantity `W(d)` of the paper's Lemma 5.1.
//!
//! For a job `J` the paper defines `W(d)` as the number of subjobs with depth
//! *strictly greater than* `d`. Lemma 5.1 shows `OPT >= d + ceil(W(d)/m)` for
//! every depth `d` at which a node exists, and Corollary 5.4 shows this bound
//! is *tight* for out-forests released together:
//! `OPT = max_d (d + ceil(W(d)/m))`.

/// Lemma 5.1's `max over d in [0, D] of (d + ceil(W(d)/m))` from per-depth
/// counts alone (the `d`-th count holds the nodes at depth `d + 1`, the
/// layout of [`JobGraph::depth_counts`](crate::JobGraph::depth_counts)):
/// walk the depths high to low, accumulating `W(d)`, the number of nodes
/// strictly deeper than `d`. Counts summed per depth over jobs released
/// together give the bound of their union without building it. Allocates
/// nothing; a graph's [`Words`](crate::Words) view is walked in one `rfold`,
/// so its width is tested once.
///
/// ```
/// use flowtree_dag::{builder, profile::opt_of_depth_counts};
///
/// // A star: root plus 6 leaves. W(0) = 7, W(1) = 6, W(2) = 0.
/// let g = builder::star(6);
/// assert_eq!(g.depth_counts(), &[1, 6]);
/// // Corollary 5.4: OPT on 3 processors = max(0 + ceil(7/3), 1 + ceil(6/3), 2) = 3.
/// assert_eq!(opt_of_depth_counts(g.depth_counts(), 3), 3);
/// assert_eq!(g.opt_single_job(3), 3);
/// ```
pub fn opt_of_depth_counts<I>(counts: I, m: u64) -> u64
where
    I: IntoIterator,
    I::IntoIter: DoubleEndedIterator + ExactSizeIterator,
    I::Item: Into<u64>,
{
    assert!(m >= 1, "need at least one processor");
    let counts = counts.into_iter();
    let span = counts.len() as u64;
    let (best, _, _) = counts.rev().fold((span, 0u64, span), |(best, w, d), c| {
        let (w, d) = (w + c.into(), d - 1);
        (best.max(d + w.div_ceil(m)), w, d)
    });
    best
}

#[cfg(test)]
mod tests {
    use super::opt_of_depth_counts;
    use crate::graph::{GraphBuilder, JobGraph};

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
        let g = chain(5);
        assert_eq!(g.depth_counts(), &[1, 1, 1, 1, 1]);
        // W(d) is the sum of the counts deeper than d.
        let w = |d: usize| g.depth_counts().iter().skip(d).sum::<u32>();
        assert_eq!((w(0), w(3), w(5), w(99)), (5, 2, 0, 0));
    }

    #[test]
    fn graph_opt_matches_profile_opt() {
        use crate::builder::complete_kary;
        // Counts rebuilt from per-node depths give the cached counts' bound.
        for g in [chain(1), chain(7), star(6), complete_kary(2, 4), complete_kary(3, 3)] {
            let mut counts = vec![0u64; g.span() as usize];
            for d in g.depths() {
                counts[d as usize - 1] += 1;
            }
            for m in 1..=9 {
                assert_eq!(
                    g.opt_single_job(m),
                    opt_of_depth_counts(counts.iter().copied(), m),
                    "m={m}"
                );
            }
        }
    }

    #[test]
    fn chain_opt_is_span_regardless_of_m() {
        let g = chain(7);
        for m in 1..=8 {
            assert_eq!(g.opt_single_job(m), 7);
        }
    }

    #[test]
    fn star_profile_and_opt() {
        let g = star(6);
        assert_eq!(g.depth_counts(), &[1, 6]);
        // m=1: run root then 6 leaves -> 7 steps. Formula: d=0: 0+7=7.
        assert_eq!(g.opt_single_job(1), 7);
        // m=3: root, then ceil(6/3)=2 -> 3. d=1: 1+2=3, d=0: ceil(7/3)=3.
        assert_eq!(g.opt_single_job(3), 3);
        // m=6: root then all leaves: 2.
        assert_eq!(g.opt_single_job(6), 2);
        // m huge: still 2 (span bound).
        assert_eq!(g.opt_single_job(1000), 2);
    }

    #[test]
    fn single_node_profile() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(g.depth_counts(), &[1]);
        assert_eq!(g.opt_single_job(1), 1);
        assert_eq!(g.opt_single_job(16), 1);
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
        for m in 1..=10u64 {
            let opt = g.opt_single_job(m);
            assert!(opt >= g.span(), "span bound violated for m={m}");
            assert!(opt >= g.work().div_ceil(m), "work bound violated for m={m}");
        }
        // m=2: depth 4 prefix is a chain, then 5 leaves -> 4 + ceil(5/2) = 7.
        assert_eq!(g.opt_single_job(2), 7);
    }
}
