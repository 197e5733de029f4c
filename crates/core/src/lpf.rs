//! Longest Path First (LPF) — Section 5.1 of the paper.
//!
//! **Algorithm LPF:** at any time, assign ready subjobs to processors in
//! order of decreasing height (number of nodes on the longest path to a
//! leaf) until processors or ready subjobs run out.
//!
//! For a single out-forest job the paper proves (Lemma 5.3, Corollary 5.4)
//! that LPF on `m` processors is *optimal* for maximum flow, and on `m/α`
//! processors is α-competitive against the optimum on `m`. The materialized
//! LPF schedule ([`lpf_levels`]) is the building block of Algorithm 𝒜: its
//! first `OPT` steps are the **head**, the rest is the **tail**, and by
//! Lemma 5.2 the tail is a full `m/α`-wide rectangle except possibly its
//! last step ([`head_tail`], [`RectangleTail`]).
//!
//! A materialized schedule is one [`Levels`] value: every level's node ids
//! in one buffer, plus where each level starts. Algorithm 𝒜 plans each
//! group into its own `Levels` with scratch ([`LpfScratch`]) it keeps
//! across groups, and hands the same buffer to the tail's MC replay.
//!
//! The multi-job online LPF baseline (FIFO across jobs, LPF within a job)
//! is not a separate type: it is [`Fifo`](crate::Fifo) with the
//! [`TieBreak::HighestHeight`](crate::TieBreak::HighestHeight) intra-job
//! policy, registered as `lpf`. Clairvoyant (needs heights); optimal for one
//! job, but *not* O(1)-competitive in general — Algorithm 𝒜 exists
//! precisely because naive FIFO composition is insufficient.

use flowtree_dag::{JobGraph, NodeId, Time};
use std::ops::Index;

/// A materialized level schedule: level `i` holds the node ids run during
/// step `i + 1`. All levels share one id buffer; `offsets[i]..offsets[i +
/// 1]` is level `i`'s range in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    ids: Vec<u32>,
    /// Level starts plus the end of the last level (`offsets[0] == 0`).
    offsets: Vec<u32>,
}

impl Default for Levels {
    fn default() -> Self {
        Levels::new()
    }
}

impl Levels {
    /// No levels.
    pub fn new() -> Self {
        Levels { ids: Vec::new(), offsets: vec![0] }
    }

    /// Number of levels (the schedule's length in steps).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// No levels at all?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Level `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&[u32]> {
        (i < self.len()).then(|| &self.ids[self.range(i)])
    }

    /// Every node id in schedule order, level after level.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The levels in order.
    pub fn iter(&self) -> LevelIter<'_> {
        LevelIter { ids: &self.ids, offsets: self.offsets.windows(2) }
    }

    /// Append a level.
    pub fn push(&mut self, level: &[u32]) {
        self.ids.extend_from_slice(level);
        self.close_level();
    }

    /// Drop every level, keeping both buffers' allocations.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.offsets.truncate(1);
    }

    /// Where level `i` starts in [`ids`](Self::ids) (`ids().len()` for
    /// `i == len()`).
    pub(crate) fn offset(&self, i: usize) -> usize {
        self.offsets[i] as usize
    }

    /// Level `i`'s range in `ids`.
    fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.offset(i)..self.offset(i + 1)
    }

    /// End the level being built: the ids pushed since the last close.
    fn close_level(&mut self) {
        self.offsets.push(self.ids.len() as u32);
    }

    /// Level `i`'s ids, mutably (MC reorders levels in place).
    pub(crate) fn level_mut(&mut self, i: usize) -> &mut [u32] {
        let r = self.range(i);
        &mut self.ids[r]
    }
}

impl Index<usize> for Levels {
    type Output = [u32];

    fn index(&self, i: usize) -> &[u32] {
        &self.ids[self.range(i)]
    }
}

/// Iterator over consecutive levels of a [`Levels`], from
/// [`Levels::iter`] or [`head_tail`].
#[derive(Debug, Clone)]
pub struct LevelIter<'a> {
    ids: &'a [u32],
    offsets: std::slice::Windows<'a, u32>,
}

impl<'a> Iterator for LevelIter<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        self.offsets.next().map(|w| &self.ids[w[0] as usize..w[1] as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.offsets.size_hint()
    }
}

impl DoubleEndedIterator for LevelIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.offsets.next_back().map(|w| &self.ids[w[0] as usize..w[1] as usize])
    }
}

impl ExactSizeIterator for LevelIter<'_> {}

/// Materialized single-job LPF schedule on `p` processors: level `t` holds
/// the node ids run during step `t + 1` (job released at 0).
///
/// ```
/// use flowtree_core::lpf::lpf_levels;
/// use flowtree_dag::{builder, DepthProfile};
///
/// let g = builder::complete_kary(2, 4); // 15 nodes, span 4
/// let levels = lpf_levels(&g, 2);
/// // Corollary 5.4: LPF attains the exact optimum.
/// assert_eq!(levels.len() as u64, DepthProfile::new(&g).opt_single_job(2));
/// ```
pub fn lpf_levels(g: &JobGraph, p: usize) -> Levels {
    lpf_levels_restricted(g, None, p)
}

/// LPF schedule of the induced subgraph of `g` on the nodes with
/// `remaining[v] == true` (`None` = all nodes).
///
/// The remaining set must be **descendant-closed** (if `v` is remaining, so
/// are all its descendants) — this is exactly the shape of "not yet
/// executed" sets, and it means restricted heights equal full-graph heights.
/// Used by the guess-and-double wrapper, which restarts Algorithm 𝒜 on the
/// unexecuted portions of jobs.
pub fn lpf_levels_restricted(g: &JobGraph, remaining: Option<&[bool]>, p: usize) -> Levels {
    let mut levels = Levels::new();
    lpf_levels_forest(&[(g, remaining)], p, &mut LpfScratch::default(), &mut levels);
    levels
}

/// Working buffers of [`lpf_levels_forest`], kept by a caller that plans
/// many forests so each plan allocates nothing once they have grown.
#[derive(Debug, Default)]
pub struct LpfScratch {
    /// Ready nodes (forest ids) by height; each a FIFO queue whose taken
    /// prefix ends at `head[h]`.
    buckets: Vec<Vec<u32>>,
    head: Vec<usize>,
    /// Remaining included parents per forest node.
    indeg: Vec<u32>,
    /// Parent of each forest node, in forest ids (`u32::MAX` for a root),
    /// as the last plan's pass over the edges recorded it.
    parent: Vec<u32>,
    /// First forest id of each part.
    start: Vec<u32>,
    /// Per edge of the part being walked, how many nodes' child lists
    /// start there.
    marks: Vec<u32>,
}

impl LpfScratch {
    /// The last plan's parent array, taken out of the scratch: entry `v`
    /// is forest node `v`'s parent in forest ids, `u32::MAX` for a root,
    /// for every node of every part whether masked or not. It is the
    /// forest's only parent array when [`lpf_levels_forest`] returned
    /// `true`; otherwise a node with several parents holds its last.
    pub fn take_parent(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.parent)
    }
}

/// LPF schedule of a *forest of jobs released together*, written into
/// `out` (cleared first). Each entry of `parts` is a graph plus an optional
/// remaining mask (descendant-closed, see [`lpf_levels_restricted`]).
///
/// All parts are treated as one out-forest (the paper's "view all the jobs
/// arriving at the same time as being one job", Section 5.3) whose nodes
/// are numbered by concatenation: part `i`'s node `v` is `v` plus the node
/// count of parts `0..i`. Masked-out nodes keep their numbers and appear in
/// no level.
///
/// Returns whether the parts form an out-forest: whether every node, masked
/// or not, has at most one parent. The pass that finds out also records
/// each node's parent, which [`LpfScratch::take_parent`] hands over.
pub fn lpf_levels_forest(
    parts: &[(&JobGraph, Option<&[bool]>)],
    p: usize,
    scratch: &mut LpfScratch,
    out: &mut Levels,
) -> bool {
    assert!(p >= 1, "need at least one processor");
    for (g, mask) in parts {
        if let Some(mask) = mask {
            assert_eq!(mask.len(), g.n(), "mask length mismatch");
            debug_assert!(descendant_closed(g, mask), "mask not descendant-closed");
        }
    }
    out.clear();
    let LpfScratch { buckets, head, indeg, parent, start, marks } = scratch;

    // Per-node state of all parts in one array, indexed by forest id.
    // Heights are read from each part's graph: full-graph heights, which
    // equal restricted heights on a descendant-closed set.
    start.clear();
    let mut total = 0u32;
    for (g, _) in parts {
        start.push(total);
        total += g.n() as u32;
    }
    let max_h = parts.iter().map(|(g, _)| g.span()).max().unwrap_or(0) as usize;
    if buckets.len() <= max_h {
        buckets.resize_with(max_h + 1, Vec::new);
    }
    head.clear();
    head.resize(max_h + 1, 0);
    indeg.clear();
    indeg.resize(total as usize, 0);
    parent.clear();
    parent.resize(total as usize, u32::MAX);

    // Buckets of ready nodes by height; cur scans downward. General DAGs
    // are supported: a node becomes ready when its *last* included parent
    // completes (indegree countdown), which degenerates to the
    // single-parent rule on out-forests.
    let mut out_forest = true;
    let mut total_remaining = 0usize;
    for (&(g, mask), &base) in parts.iter().zip(start.iter()) {
        let n = g.n();
        let heads = g.edge_heads();
        let (par, deg) = (&mut parent[base as usize..][..n], &mut indeg[base as usize..][..n]);
        // One pass over the edges: each head's included parents are
        // counted, its parent recorded, and a second parent noticed. An
        // edge's tail is the running sum of `marks`, which counts the
        // nodes whose child list starts at each edge. A loop per node over
        // its child list exits at a random length, and mispredicting that
        // exit made 𝒜's group plans about 20% slower on random recursive
        // trees.
        marks.clear();
        marks.resize(heads.len() + 1, 0);
        let mut end = 0;
        for u in 0..n - 1 {
            end += g.out_degree(NodeId(u as u32));
            marks[end] += 1;
        }
        let mut u = 0;
        for (&c, &m) in heads.iter().zip(marks.iter()) {
            u += m;
            let c = c as usize;
            out_forest &= par[c] == u32::MAX;
            par[c] = base + u;
            deg[c] += mask.is_none_or(|m| m[u as usize]) as u32;
        }
        let heights = g.heights();
        for v in 0..n {
            if mask.is_some_and(|m| !m[v]) {
                continue;
            }
            total_remaining += 1;
            if deg[v] == 0 {
                buckets[heights[v] as usize].push(base + v as u32);
            }
        }
    }

    let mut cur = max_h;
    while total_remaining > 0 {
        // Fill the step straight into `out`.
        let level_start = out.ids.len();
        while out.ids.len() - level_start < p {
            while cur > 0 && head[cur] == buckets[cur].len() {
                // Exhausted: reset the queue so its space is reused.
                buckets[cur].clear();
                head[cur] = 0;
                cur -= 1;
            }
            if cur == 0 {
                break;
            }
            // Take from the tallest bucket, oldest-inserted first.
            let (bucket, h) = (&buckets[cur], head[cur]);
            let take = (p - (out.ids.len() - level_start)).min(bucket.len() - h);
            out.ids.extend_from_slice(&bucket[h..h + take]);
            head[cur] += take;
        }
        debug_assert!(out.ids.len() > level_start, "no ready node but work remains");
        total_remaining -= out.ids.len() - level_start;
        out.close_level();
        // Enable children only now that the step is closed (same-step
        // children must not be picked). A child is shorter than its
        // parent, so it joins a bucket at or below `cur` or raises `cur`
        // to its height, in step order then child-list order.
        for &u in &out.ids[level_start..] {
            let pi = if parts.len() == 1 {
                0
            } else {
                start.partition_point(|&s| s <= u) - 1
            };
            let ((g, mask), base) = (parts[pi], start[pi]);
            let heights = g.heights();
            for &c in g.children(NodeId(u - base)) {
                if mask.is_some_and(|m| !m[c as usize]) {
                    continue;
                }
                let d = &mut indeg[(base + c) as usize];
                *d -= 1;
                if *d == 0 {
                    let h = heights[c as usize] as usize;
                    buckets[h].push(base + c);
                    cur = cur.max(h);
                }
            }
        }
    }
    // Leave every bucket empty for the next plan.
    for b in &mut buckets[..=max_h] {
        b.clear();
    }
    out_forest
}

/// Is `mask` descendant-closed in `g` (every child of a remaining node is
/// remaining)? Debug-checked by the restricted LPF variants.
pub fn descendant_closed(g: &JobGraph, mask: &[bool]) -> bool {
    g.nodes()
        .all(|v| !mask[v.index()] || g.children(v).iter().all(|&c| mask[c as usize]))
}

/// The head/tail split of a materialized LPF schedule (paper, Section 5.3):
/// the **head** is the first `opt` levels, the **tail** the rest.
pub fn head_tail(levels: &Levels, opt: Time) -> (LevelIter<'_>, LevelIter<'_>) {
    let cut = (opt as usize).min(levels.len());
    let (ids, offsets) = (&levels.ids[..], &levels.offsets[..]);
    (
        LevelIter { ids, offsets: offsets[..=cut].windows(2) },
        LevelIter { ids, offsets: offsets[cut..].windows(2) },
    )
}

/// Shape report for the tail of an LPF schedule — the paper's Figure 2:
/// after the head, the schedule is a `p`-wide rectangle except possibly the
/// final step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RectangleTail {
    /// Number of tail steps.
    pub len: usize,
    /// Steps (excluding the last) that are exactly `p` wide.
    pub full_steps: usize,
}

impl RectangleTail {
    /// Measure the tail (everything after `opt` levels) of an LPF schedule.
    pub fn measure(levels: &Levels, opt: Time, p: usize) -> Self {
        let (_, tail) = head_tail(levels, opt);
        let len = tail.len();
        let full_steps = tail.take(len.saturating_sub(1)).filter(|l| l.len() == p).count();
        RectangleTail { len, full_steps }
    }

    /// Is the tail a perfect rectangle except possibly the final step?
    /// (Lemma 5.2's consequence; requires `opt` to be a valid upper bound on
    /// the single-job OPT on the *full* machine.)
    pub fn is_rectangle(&self) -> bool {
        self.full_steps == self.len.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fifo, TieBreak};
    use flowtree_dag::builder::{caterpillar, chain, complete_kary, star};
    use flowtree_dag::{DepthProfile, JobId};
    use flowtree_sim::{Engine, Instance};

    fn nested(levels: &Levels) -> Vec<Vec<u32>> {
        levels.iter().map(<[u32]>::to_vec).collect()
    }

    /// Replay materialized levels as a schedule to verify feasibility.
    fn verify_levels(g: &JobGraph, levels: &Levels, p: usize) {
        let inst = Instance::single(g.clone());
        let mut s = flowtree_sim::Schedule::new(p);
        for level in levels.iter() {
            assert!(level.len() <= p, "level wider than p");
            s.push_step(level.iter().map(|&v| (JobId(0), flowtree_dag::NodeId(v))).collect());
        }
        s.verify(&inst).unwrap();
    }

    #[test]
    fn chain_runs_sequentially() {
        let g = chain(5);
        let levels = lpf_levels(&g, 4);
        assert_eq!(levels.len(), 5);
        assert!(levels.iter().all(|l| l.len() == 1));
        verify_levels(&g, &levels, 4);
    }

    #[test]
    fn star_is_work_limited() {
        let g = star(8);
        let levels = lpf_levels(&g, 4);
        // root; then 8 leaves in two waves of 4.
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![0]);
        assert_eq!(levels[1].len(), 4);
        assert_eq!(levels[2].len(), 4);
        verify_levels(&g, &levels, 4);
    }

    #[test]
    fn lpf_flow_matches_corollary_5_4_formula() {
        // Corollary 5.4: on m processors LPF is optimal, and
        // OPT = max_d (d + ceil(W(d)/m)).
        for g in [
            chain(9),
            star(13),
            complete_kary(2, 5),
            complete_kary(3, 4),
            caterpillar(6, &[4, 0, 3, 7, 0, 2]),
        ] {
            let p = DepthProfile::new(&g);
            for m in [1usize, 2, 3, 4, 7, 16] {
                let levels = lpf_levels(&g, m);
                verify_levels(&g, &levels, m);
                // A job released at 0 has flow = its number of levels.
                assert_eq!(
                    levels.len() as Time,
                    p.opt_single_job(m as u64),
                    "LPF flow != formula for m={m}"
                );
            }
        }
    }

    #[test]
    fn lpf_prioritizes_height_over_breadth() {
        // Spine chain of 4 with 3 extra leaves at the root: with p=1, LPF
        // must run the whole spine before the leaves (heights 4,3,2,1 > 1).
        let g = caterpillar(4, &[3, 0, 0, 0]);
        let levels = lpf_levels(&g, 1);
        // Heights force the spine prefix 0,1,2 first; the remaining four
        // nodes (spine tail + legs) all have height 1 and may run in any
        // order.
        assert_eq!(nested(&levels)[..3], vec![vec![0], vec![1], vec![2]][..]);
        assert_eq!(levels.len(), 7);
    }

    #[test]
    fn restricted_lpf_skips_executed_prefix() {
        let g = chain(4);
        // Nodes 0, 1 executed; remaining = {2, 3}.
        let remaining = vec![false, false, true, true];
        let levels = lpf_levels_restricted(&g, Some(&remaining), 2);
        assert_eq!(nested(&levels), vec![vec![2], vec![3]]);
    }

    #[test]
    fn restricted_lpf_multiple_entry_points() {
        // star(3): root executed, leaves remain -> all ready at once.
        let g = star(3);
        let remaining = vec![false, true, true, true];
        let levels = lpf_levels_restricted(&g, Some(&remaining), 2);
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), 2);
        assert_eq!(levels[1].len(), 1);
    }

    #[test]
    #[should_panic(expected = "descendant-closed")]
    #[cfg(debug_assertions)]
    fn non_descendant_closed_mask_panics() {
        let g = chain(3);
        // 0 remaining but child 1 excluded: not descendant-closed.
        let remaining = vec![true, false, true];
        lpf_levels_restricted(&g, Some(&remaining), 1);
    }

    #[test]
    fn general_dags_respect_joins() {
        // Diamond 0 -> {1,2} -> 3: node 3 must wait for *both* parents.
        let mut b = flowtree_dag::GraphBuilder::new(4);
        b.edge(0, 1).edge(0, 2).edge(1, 3).edge(2, 3);
        let g = b.build().unwrap();
        let levels = lpf_levels(&g, 2);
        verify_levels(&g, &levels, 2);
        assert_eq!(nested(&levels), vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn sp_dag_lpf_is_feasible() {
        let g = flowtree_dag::sp::figure1_job();
        for p in 1..=4 {
            let levels = lpf_levels(&g, p);
            verify_levels(&g, &levels, p);
        }
    }

    #[test]
    fn forest_lpf_mixes_parts_by_height() {
        let a = chain(3); // heights 3,2,1
        let b = star(4); // heights 2,1,1,1,1
        let mut levels = Levels::new();
        lpf_levels_forest(&[(&a, None), (&b, None)], 2, &mut LpfScratch::default(), &mut levels);
        // Step 1: chain head (h=3) and star root (h=2, group id 3 + 0).
        assert_eq!(levels[0], [0, 3]);
        // Total work 8 on p=2 with enough parallelism: 4 steps.
        assert_eq!(levels.len(), 4);
        assert_eq!(levels.ids().len(), 8);
    }

    #[test]
    fn head_tail_split() {
        let g = star(8);
        let levels = lpf_levels(&g, 2);
        let (head, tail) = head_tail(&levels, 2);
        assert_eq!(head.len(), 2);
        assert_eq!(tail.len(), levels.len() - 2);
        assert!(head.chain(tail).eq(levels.iter()), "the halves tile the schedule");
        // Split beyond the end: everything is head.
        let (head, tail) = head_tail(&levels, 100);
        assert_eq!(head.len(), levels.len());
        assert_eq!(tail.len(), 0);
    }

    #[test]
    fn figure2_tail_is_rectangle() {
        // Lemma 5.2 consequence: for an LPF schedule on p = m/alpha
        // processors, every level after single-machine-OPT time is full
        // width except the last. Use a random-ish caterpillar and check with
        // opt computed on the full machine m = alpha * p.
        let g = caterpillar(8, &[0, 6, 1, 9, 2, 0, 5, 3]);
        let (alpha, p) = (4usize, 3usize);
        let m = alpha * p;
        let opt = DepthProfile::new(&g).opt_single_job(m as u64);
        let levels = lpf_levels(&g, p);
        let shape = RectangleTail::measure(&levels, opt, p);
        assert!(
            shape.is_rectangle(),
            "tail not rectangular: {shape:?}, levels: {:?}",
            levels.iter().map(<[u32]>::len).collect::<Vec<_>>()
        );
        // Tail length bound from Lemma 5.3: flow <= alpha * opt, so the tail
        // is at most (alpha - 1) * opt long.
        assert!(shape.len as u64 <= (alpha as u64 - 1) * opt);
    }

    #[test]
    fn lemma_5_2_ancestor_chains_at_idle_steps() {
        // Lemma 5.2, the statement itself (not just the rectangle
        // consequence): let t be any step of LPF[p] with an idle processor.
        // Then either every subjob of S(t) is a leaf (the job ends at t), or
        // for each non-leaf j in S(t) and each earlier step s, the ancestor
        // of j that is t - s hops up runs exactly at step s.
        for g in [
            caterpillar(9, &[3, 0, 5, 1, 0, 2, 4, 0, 1]),
            complete_kary(3, 4),
            flowtree_dag::builder::quicksort_tree(200, 1, 3, 1),
        ] {
            let p = 3;
            let levels = lpf_levels(&g, p);
            // when[v] = 1-based step of v.
            let mut when = vec![0usize; g.n()];
            for (i, level) in levels.iter().enumerate() {
                for &v in level {
                    when[v as usize] = i + 1;
                }
            }
            let mut parent = vec![None; g.n()];
            for (u, v) in g.edges() {
                parent[v as usize] = Some(u);
            }
            let parent_of = |v: u32| parent[v as usize];
            for (i, level) in levels.iter().enumerate() {
                let t = i + 1;
                if level.len() == p {
                    continue; // not idle
                }
                let all_leaves = level.iter().all(|&v| g.out_degree(flowtree_dag::NodeId(v)) == 0);
                if all_leaves {
                    assert_eq!(t, levels.len(), "all-leaf idle step must be last");
                    continue;
                }
                for &j in level {
                    if g.out_degree(flowtree_dag::NodeId(j)) == 0 {
                        continue;
                    }
                    // Walk ancestors: hop k up must run at step t - k.
                    let mut cur = j;
                    for s in (1..t).rev() {
                        let up = parent_of(cur)
                            .unwrap_or_else(|| panic!("non-leaf at idle step {t} lacks depth {t}"));
                        assert_eq!(
                            when[up as usize],
                            s,
                            "ancestor of v{j} at hop {} not at step {s}",
                            t - s
                        );
                        cur = up;
                    }
                }
            }
        }
    }

    #[test]
    fn multi_job_lpf_scheduler_runs() {
        let inst = Instance::new(vec![
            flowtree_sim::JobSpec { graph: complete_kary(2, 4), release: 0 },
            flowtree_sim::JobSpec { graph: chain(6), release: 2 },
        ]);
        let s = Engine::new(3).run(&inst, &mut Fifo::new(TieBreak::HighestHeight)).unwrap();
        s.verify(&inst).unwrap();
        let stats = flowtree_sim::metrics::flow_stats(&inst, &s);
        // chain(6) arriving at 2 needs >= 6 flow; the tree needs >= 4.
        assert!(stats.max_flow >= 6);
    }

    #[test]
    fn single_job_lpf_scheduler_matches_materialized() {
        let g = complete_kary(2, 5);
        let inst = Instance::single(g.clone());
        let s = Engine::new(4).run(&inst, &mut Fifo::new(TieBreak::HighestHeight)).unwrap();
        s.verify(&inst).unwrap();
        let stats = flowtree_sim::metrics::flow_stats(&inst, &s);
        assert_eq!(stats.max_flow, lpf_levels(&g, 4).len() as Time);
    }
}
