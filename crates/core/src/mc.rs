//! The Maximum-Children (MC) replay algorithm — Section 5.2 of the paper.
//!
//! MC receives a feasible single-job schedule `S` (in practice an LPF tail)
//! whose only idle step is its last, and re-executes its subjobs online
//! while the number of granted processors `m_t` fluctuates. At each step it
//! repeatedly takes, from the earliest level of `S` with unprocessed
//! subjobs, a subjob with the maximum number of children *in the next level
//! of `S`*. Lemma 5.5: MC never idles a granted processor before finishing
//! (provided `m_t <= width(S)` and the job is an out-forest).
//!
//! Intuition: by preferring high-fanout subjobs, MC keeps as many next-level
//! subjobs enabled as possible, so it can always "borrow" work from the next
//! level when granted more processors than the current level has left.

use flowtree_dag::JobGraph;

/// The `parent` entry of a root.
const NO_PARENT: u32 = u32::MAX;

/// Replays a level schedule under fluctuating processor grants.
#[derive(Debug, Clone)]
pub struct McReplay {
    /// For each level, nodes sorted by (children-in-next-level) descending,
    /// stable by original in-level order.
    levels: Vec<Vec<u32>>,
    /// Earliest level that still has unprocessed nodes.
    front: usize,
    /// Per level, how many of its (sorted) nodes are already processed —
    /// NOT usable directly since we skip unready nodes; instead keep
    /// per-node processed flags and per-level remaining counts.
    processed: Vec<bool>,
    /// Step at which each node was processed (for same-step readiness
    /// checks); usize::MAX = unprocessed.
    processed_step: Vec<usize>,
    remaining_in_level: Vec<usize>,
    /// Parent of each node ([`NO_PARENT`] for roots) — out-forest structure.
    parent: Vec<u32>,
    /// Total unprocessed nodes.
    remaining: usize,
    /// Current step counter (one per `next` call).
    step: usize,
}

impl McReplay {
    /// Build a replay over `levels` (a feasible level schedule of `graph`,
    /// e.g. an LPF tail — level `i` runs before level `i+1`). `graph` must
    /// be an out-forest. Nodes listed in `levels` are exactly the ones MC
    /// will run; nodes of `graph` absent from `levels` are treated as
    /// already executed.
    pub fn new(graph: &JobGraph, levels: Vec<Vec<u32>>) -> Self {
        let parent = graph
            .nodes()
            .map(|v| {
                let ps = graph.parents(v);
                assert!(ps.len() <= 1, "MC replay requires an out-forest");
                ps.first().copied().unwrap_or(NO_PARENT)
            })
            .collect();
        Self::with_parents(parent, levels)
    }

    /// [`new`](Self::new) over an out-forest given by its parent array
    /// (`parent[v]` is `v`'s only parent, `u32::MAX` for a root), so a
    /// caller holding a forest as several graphs need not build the union
    /// graph. Nodes absent from `levels` count as already executed.
    pub fn with_parents(parent: Vec<u32>, levels: Vec<Vec<u32>>) -> Self {
        let n = parent.len();
        let mut level_of = vec![usize::MAX; n];
        for (li, level) in levels.iter().enumerate() {
            for &v in level {
                assert!(level_of[v as usize] == usize::MAX, "node v{v} appears twice in levels");
                level_of[v as usize] = li;
            }
        }
        // children-in-next-level counts.
        let mut next_children = vec![0u32; n];
        for (v, &p) in parent.iter().enumerate() {
            if p == NO_PARENT {
                continue;
            }
            let (lv, lp) = (level_of[v], level_of[p as usize]);
            if lv != usize::MAX && lp != usize::MAX {
                assert!(lp < lv, "levels violate precedence for v{v}");
                if lv == lp + 1 {
                    next_children[p as usize] += 1;
                }
            }
        }
        // Sort each level by next_children desc (stable). Keys are gathered
        // once per node into a reused scratch, so the comparator works on a
        // packed (key, node) pair instead of chasing `next_children` twice
        // per comparison.
        let mut sorted = levels;
        let mut keyed: Vec<(u32, u32)> = Vec::new();
        for level in &mut sorted {
            keyed.clear();
            keyed.extend(level.iter().map(|&v| (next_children[v as usize], v)));
            // Stable sort on the key alone preserves original in-level order
            // among equal-fanout nodes.
            keyed.sort_by_key(|&(k, _)| std::cmp::Reverse(k));
            for (slot, &(_, v)) in level.iter_mut().zip(&keyed) {
                *slot = v;
            }
        }
        let remaining_in_level: Vec<usize> = sorted.iter().map(Vec::len).collect();
        let remaining = remaining_in_level.iter().sum();
        // Nodes outside `levels` count as processed (in the infinite past).
        let processed: Vec<bool> = (0..n).map(|v| level_of[v] == usize::MAX).collect();
        let processed_step: Vec<usize> = (0..n)
            .map(|v| {
                if level_of[v] == usize::MAX {
                    0
                } else {
                    usize::MAX
                }
            })
            .collect();
        McReplay {
            levels: sorted,
            front: 0,
            processed,
            processed_step,
            remaining_in_level,
            parent,
            remaining,
            step: 0,
        }
    }

    /// Subjobs still to run.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Has every subjob been run?
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Run one step with `m_t` granted processors; returns the node ids MC
    /// schedules this step (possibly fewer than `m_t` only when the job is
    /// about to finish — Lemma 5.5).
    pub fn next(&mut self, m_t: usize) -> Vec<u32> {
        self.step += 1;
        let step = self.step;
        let mut picks: Vec<u32> = Vec::with_capacity(m_t.min(self.remaining));
        let mut li = self.front;
        while picks.len() < m_t && li < self.levels.len() {
            if self.remaining_in_level[li] == 0 {
                li += 1;
                continue;
            }
            // Scan the level's (priority-sorted) nodes; take ready ones.
            let mut advanced = false;
            // Iterate over a snapshot of indices to allow mutation.
            for idx in 0..self.levels[li].len() {
                if picks.len() >= m_t {
                    break;
                }
                let v = self.levels[li][idx];
                if self.processed[v as usize] {
                    continue;
                }
                let p = self.parent[v as usize];
                let ready = p == NO_PARENT
                    || (self.processed[p as usize] && self.processed_step[p as usize] < step);
                if ready {
                    self.processed[v as usize] = true;
                    self.processed_step[v as usize] = step;
                    self.remaining_in_level[li] -= 1;
                    self.remaining -= 1;
                    picks.push(v);
                    advanced = true;
                }
            }
            if self.remaining_in_level[li] == 0 {
                li += 1;
            } else if !advanced || picks.len() < m_t {
                // Unready stragglers remain in this level (their parents ran
                // this very step) — nothing deeper can be ready either
                // (out-forest: a deeper node's parent is in this level or
                // later). Stop the step.
                break;
            }
        }
        // Advance the front past exhausted levels.
        while self.front < self.levels.len() && self.remaining_in_level[self.front] == 0 {
            self.front += 1;
        }
        picks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpf::lpf_levels;
    use flowtree_dag::builder::{caterpillar, chain, complete_kary, star};
    use flowtree_dag::{DepthProfile, GraphBuilder};

    /// Drive MC with a grant sequence; check feasibility of the produced
    /// order and Lemma 5.5 (full grants until done). Returns steps taken.
    fn drive(
        graph: &JobGraph,
        levels: Vec<Vec<u32>>,
        grants: &mut dyn FnMut(usize) -> usize,
    ) -> usize {
        let expected: usize = levels.iter().map(Vec::len).sum();
        let mut mc = McReplay::new(graph, levels);
        let mut done_step = vec![0usize; graph.n()];
        let mut steps = 0;
        let mut total = 0;
        while !mc.is_done() {
            steps += 1;
            let m_t = grants(steps);
            let picks = mc.next(m_t);
            assert!(
                picks.len() == m_t || mc.is_done(),
                "Lemma 5.5 violated at step {steps}: got {} of {m_t}, {} left",
                picks.len(),
                mc.remaining()
            );
            for &v in &picks {
                done_step[v as usize] = steps;
            }
            total += picks.len();
            assert!(steps < 10_000, "MC not terminating");
        }
        assert_eq!(total, expected);
        // Precedence: child strictly after parent (when both replayed).
        for v in graph.nodes() {
            for &c in graph.children(v) {
                if done_step[v.index()] > 0 && done_step[c as usize] > 0 {
                    assert!(done_step[v.index()] < done_step[c as usize]);
                }
            }
        }
        steps
    }

    #[test]
    fn replays_full_lpf_schedule_with_matching_grants() {
        // Granting exactly the original level widths reproduces the schedule
        // length (the full schedule's head has narrow steps, so constant
        // grants would violate Lemma 5.5's precondition — the width-matched
        // grant sequence is the legal one here).
        let g = complete_kary(2, 5);
        let p = 4;
        let levels = lpf_levels(&g, p);
        let widths: Vec<usize> = levels.iter().map(Vec::len).collect();
        let steps = drive(&g, levels.clone(), &mut |s| widths[s - 1]);
        assert_eq!(steps, levels.len(), "matching grants => same length");
    }

    #[test]
    fn fluctuating_grants_keep_processors_busy() {
        // Lemma 5.5 under adversarial-ish m_t: alternate 1 and p.
        let g = caterpillar(10, &[3, 0, 5, 2, 0, 0, 7, 1, 4, 2]);
        let p = 4;
        // LPF on p processors: full except last step once past the span —
        // MC's precondition. Use the whole schedule (head included) but
        // grants never exceed... head may have narrow steps; Lemma 5.5's
        // precondition is "only idle at the end". Use the tail only.
        let m = 16; // alpha = 4
        let opt = DepthProfile::new(&g).opt_single_job(m as u64);
        let levels = lpf_levels(&g, p);
        let tail: Vec<Vec<u32>> = levels[(opt as usize).min(levels.len())..].to_vec();
        if tail.is_empty() {
            return; // nothing to replay; fine for this shape
        }
        let mut flip = false;
        drive(&g, tail, &mut |_| {
            flip = !flip;
            if flip {
                1
            } else {
                p
            }
        });
    }

    #[test]
    fn zero_grant_steps_are_tolerated() {
        let g = star(6);
        let levels = lpf_levels(&g, 3);
        let mut mc = McReplay::new(&g, levels);
        assert!(mc.next(0).is_empty());
        while !mc.is_done() {
            mc.next(2);
        }
    }

    #[test]
    fn prefers_max_children_nodes() {
        // Level 0 = {a, b} where a has 2 children in level 1 and b has 0.
        // With m_t = 1, MC must pick a first.
        let mut bld = GraphBuilder::new(4);
        bld.edge(0, 2).edge(0, 3); // a = 0 with children 2, 3; b = 1 leaf
        let g = bld.build().unwrap();
        let levels = vec![vec![1, 0], vec![2, 3]]; // a listed second!
        let mut mc = McReplay::new(&g, levels);
        assert_eq!(mc.next(1), vec![0], "max-children node first");
        // Next step: level 0 remainder (b) then level 1 children.
        let picks = mc.next(3);
        assert_eq!(picks.len(), 3);
        assert_eq!(picks[0], 1);
    }

    #[test]
    fn borrows_from_next_level_when_granted_extra() {
        // chain-free forest: two stars side by side. Level widths 2 then 4.
        let g = flowtree_dag::builder::forest(&[star(2), star(2)]);
        let levels = lpf_levels(&g, 2);
        assert_eq!(levels.iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 2, 2]);
        let mut mc = McReplay::new(&g, levels);
        // Grant 4 at once: both roots + nothing else (children unready same
        // step) -> only 2. This is the about-to-finish exemption? No — not
        // done. But Lemma 5.5's precondition says m_t <= width of S = 2.
        // With a legal grant of 2 every step, MC stays busy.
        for _ in 0..3 {
            assert_eq!(mc.next(2).len(), 2);
        }
        assert!(mc.is_done());
    }

    #[test]
    fn nodes_outside_levels_count_as_executed() {
        // chain(4): replay only the last two nodes.
        let g = chain(4);
        let levels = vec![vec![2], vec![3]];
        let mut mc = McReplay::new(&g, levels);
        assert_eq!(mc.remaining(), 2);
        assert_eq!(mc.next(1), vec![2]);
        assert_eq!(mc.next(1), vec![3]);
        assert!(mc.is_done());
    }

    #[test]
    fn lemma_5_5_on_lpf_tails_randomized() {
        // Systematic check over a family of shapes and grant patterns.
        let shapes: Vec<JobGraph> = vec![
            complete_kary(3, 4),
            caterpillar(12, &[1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1, 0]),
            flowtree_dag::builder::quicksort_tree(300, 1, 3, 1),
            flowtree_dag::builder::forest(&[star(7), chain(5), complete_kary(2, 4)]),
        ];
        for g in shapes {
            for alpha in [2usize, 4] {
                let p = 4;
                let m = alpha * p;
                let opt = DepthProfile::new(&g).opt_single_job(m as u64);
                let levels = lpf_levels(&g, p);
                if levels.len() <= opt as usize {
                    continue;
                }
                let tail = levels[opt as usize..].to_vec();
                let mut k = 0usize;
                drive(&g, tail, &mut |_| {
                    k += 1;
                    1 + (k * 7 + 3) % p // cycles through 1..=p
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "out-forest")]
    fn rejects_dags_with_joins() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 2).edge(1, 2);
        let g = b.build().unwrap();
        McReplay::new(&g, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn rejects_duplicate_nodes_in_levels() {
        let g = chain(2);
        McReplay::new(&g, vec![vec![0], vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "violate precedence")]
    fn rejects_levels_violating_precedence() {
        let g = chain(2);
        McReplay::new(&g, vec![vec![1], vec![0]]);
    }
}
