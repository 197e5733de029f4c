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
//!
//! The replay takes over the [`Levels`] buffer it replays (Algorithm 𝒜
//! hands it a group's whole plan plus the index of the first unexecuted
//! level), reorders each level in place by fanout, and keeps one `u32` per
//! node: the step that ran it. [`McReplay::next`] hands each pick to the
//! caller as it is made, so nothing is collected per step.

use crate::lpf::Levels;
use flowtree_dag::JobGraph;

/// The `parent` entry of a root.
const NO_PARENT: u32 = u32::MAX;

/// [`McReplay::done`] of a node still to run.
const NOT_DONE: u32 = u32::MAX;

/// Replays a level schedule under fluctuating processor grants.
#[derive(Debug, Clone)]
pub struct McReplay {
    /// The schedule; from level `front` on, each level is sorted by
    /// children-in-next-level descending, stable by original in-level order.
    levels: Levels,
    /// Earliest level that still has unprocessed nodes.
    front: usize,
    /// Per node, the step that ran it: 0 for a node that ran before the
    /// replay (or is in no replayed level), [`NOT_DONE`] for one still to
    /// run. A node is ready at step `s` when its parent's entry is `< s`.
    done: Vec<u32>,
    /// Per level, how many of its nodes are still to run.
    left: Vec<u32>,
    /// Parent of each node ([`NO_PARENT`] for roots) — out-forest structure.
    parent: Vec<u32>,
    /// Total unprocessed nodes.
    remaining: usize,
    /// Current step counter (one per `next` call).
    step: u32,
}

impl McReplay {
    /// Build a replay of `levels` from level `from` on (a feasible level
    /// schedule of `graph`, e.g. an LPF schedule whose first `from` levels
    /// are its executed head — level `i` runs before level `i+1`). `graph`
    /// must be an out-forest. Nodes in the replayed levels are exactly the
    /// ones MC will run; every other node of `graph` is treated as already
    /// executed.
    pub fn new(graph: &JobGraph, levels: Levels, from: usize) -> Self {
        let mut parent = vec![NO_PARENT; graph.n()];
        for u in graph.nodes() {
            for &c in graph.children(u) {
                assert!(parent[c as usize] == NO_PARENT, "MC replay requires an out-forest");
                parent[c as usize] = u.0;
            }
        }
        Self::with_parents(parent, levels, from)
    }

    /// [`new`](Self::new) over an out-forest given by its parent array
    /// (`parent[v]` is `v`'s only parent, `u32::MAX` for a root), so a
    /// caller holding a forest as several graphs need not build the union
    /// graph.
    pub fn with_parents(parent: Vec<u32>, mut levels: Levels, from: usize) -> Self {
        let n = parent.len();
        let from = from.min(levels.len());
        // `done` holds each replayed node's level + 1 while the replay is
        // built (0 = not replayed).
        let mut done = vec![0u32; n];
        for li in from..levels.len() {
            for &v in &levels[li] {
                assert!(done[v as usize] == 0, "node v{v} appears twice in levels");
                done[v as usize] = li as u32 + 1;
            }
        }
        // children-in-next-level counts.
        let mut next_children = vec![0u32; n];
        for &v in &levels.ids()[levels.offset(from)..] {
            let p = parent[v as usize];
            if p == NO_PARENT || done[p as usize] == 0 {
                continue;
            }
            let (lv, lp) = (done[v as usize], done[p as usize]);
            assert!(lp < lv, "levels violate precedence for v{v}");
            if lv == lp + 1 {
                next_children[p as usize] += 1;
            }
        }
        // Sort each level by next_children desc (stable). Keys are gathered
        // once per node into a reused scratch, so the comparator works on a
        // packed (key, node) pair instead of chasing `next_children` twice
        // per comparison.
        let mut keyed: Vec<(u32, u32)> = Vec::new();
        let mut left = vec![0u32; levels.len()];
        for (li, n_left) in left.iter_mut().enumerate().skip(from) {
            let level = levels.level_mut(li);
            *n_left = level.len() as u32;
            keyed.clear();
            keyed.extend(level.iter().map(|&v| (next_children[v as usize], v)));
            // Stable sort on the key alone preserves original in-level order
            // among equal-fanout nodes.
            keyed.sort_by_key(|&(k, _)| std::cmp::Reverse(k));
            for (slot, &(_, v)) in level.iter_mut().zip(&keyed) {
                *slot = v;
            }
        }
        let replayed = &levels.ids()[levels.offset(from)..];
        for &v in replayed {
            done[v as usize] = NOT_DONE;
        }
        let remaining = replayed.len();
        McReplay { levels, front: from, done, left, parent, remaining, step: 0 }
    }

    /// Subjobs still to run.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Has every subjob been run?
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Run one step with `m_t` granted processors: hands each node MC
    /// schedules this step to `pick`, in pick order, and returns how many
    /// it scheduled (fewer than `m_t` only when the job is about to finish
    /// — Lemma 5.5).
    pub fn next(&mut self, m_t: usize, mut pick: impl FnMut(u32)) -> usize {
        self.step += 1;
        let step = self.step;
        let McReplay { levels, front, done, left, parent, remaining, .. } = self;
        let mut got = 0;
        let mut li = *front;
        while got < m_t && li < levels.len() {
            if left[li] == 0 {
                li += 1;
                continue;
            }
            // Scan the level's (priority-sorted) nodes; take ready ones.
            let mut advanced = false;
            for &v in &levels[li] {
                if got >= m_t {
                    break;
                }
                if done[v as usize] != NOT_DONE {
                    continue;
                }
                let p = parent[v as usize];
                if p == NO_PARENT || done[p as usize] < step {
                    done[v as usize] = step;
                    left[li] -= 1;
                    *remaining -= 1;
                    pick(v);
                    got += 1;
                    advanced = true;
                }
            }
            if left[li] == 0 {
                li += 1;
            } else if !advanced || got < m_t {
                // Unready stragglers remain in this level (their parents ran
                // this very step) — nothing deeper can be ready either
                // (out-forest: a deeper node's parent is in this level or
                // later). Stop the step.
                break;
            }
        }
        // Advance the front past exhausted levels.
        while *front < levels.len() && left[*front] == 0 {
            *front += 1;
        }
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpf::{lpf_levels, Levels};
    use flowtree_dag::builder::{caterpillar, chain, complete_kary, star};
    use flowtree_dag::{DepthProfile, GraphBuilder};

    /// Levels built by hand.
    fn levels_of(levels: &[&[u32]]) -> Levels {
        let mut l = Levels::new();
        for level in levels {
            l.push(level);
        }
        l
    }

    /// One step's picks, collected.
    fn step(mc: &mut McReplay, m_t: usize) -> Vec<u32> {
        let mut picks = Vec::new();
        let got = mc.next(m_t, |v| picks.push(v));
        assert_eq!(got, picks.len());
        picks
    }

    /// Drive MC over `levels` from level `from` with a grant sequence;
    /// check feasibility of the produced order and Lemma 5.5 (full grants
    /// until done). Returns steps taken.
    fn drive(
        graph: &JobGraph,
        levels: Levels,
        from: usize,
        grants: &mut dyn FnMut(usize) -> usize,
    ) -> usize {
        let expected: usize = levels.iter().skip(from).map(<[u32]>::len).sum();
        let mut mc = McReplay::new(graph, levels, from);
        let mut done_step = vec![0usize; graph.n()];
        let mut steps = 0;
        let mut total = 0;
        while !mc.is_done() {
            steps += 1;
            let m_t = grants(steps);
            let picks = step(&mut mc, m_t);
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
        let widths: Vec<usize> = levels.iter().map(<[u32]>::len).collect();
        let steps = drive(&g, levels.clone(), 0, &mut |s| widths[s - 1]);
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
        if levels.len() <= opt as usize {
            return; // nothing to replay; fine for this shape
        }
        let mut flip = false;
        drive(&g, levels, opt as usize, &mut |_| {
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
        let mut mc = McReplay::new(&g, levels, 0);
        assert_eq!(mc.next(0, |_| panic!("no grant, no pick")), 0);
        while !mc.is_done() {
            mc.next(2, |_| {});
        }
    }

    #[test]
    fn prefers_max_children_nodes() {
        // Level 0 = {a, b} where a has 2 children in level 1 and b has 0.
        // With m_t = 1, MC must pick a first.
        let mut bld = GraphBuilder::new(4);
        bld.edge(0, 2).edge(0, 3); // a = 0 with children 2, 3; b = 1 leaf
        let g = bld.build().unwrap();
        let levels = levels_of(&[&[1, 0], &[2, 3]]); // a listed second!
        let mut mc = McReplay::new(&g, levels, 0);
        assert_eq!(step(&mut mc, 1), vec![0], "max-children node first");
        // Next step: level 0 remainder (b) then level 1 children.
        let picks = step(&mut mc, 3);
        assert_eq!(picks.len(), 3);
        assert_eq!(picks[0], 1);
    }

    #[test]
    fn borrows_from_next_level_when_granted_extra() {
        // chain-free forest: two stars side by side. Level widths 2 then 4.
        let g = flowtree_dag::builder::forest(&[star(2), star(2)]);
        let levels = lpf_levels(&g, 2);
        assert_eq!(levels.iter().map(<[u32]>::len).collect::<Vec<_>>(), vec![2, 2, 2]);
        let mut mc = McReplay::new(&g, levels, 0);
        // Grant 4 at once: both roots + nothing else (children unready same
        // step) -> only 2. This is the about-to-finish exemption? No — not
        // done. But Lemma 5.5's precondition says m_t <= width of S = 2.
        // With a legal grant of 2 every step, MC stays busy.
        for _ in 0..3 {
            assert_eq!(mc.next(2, |_| {}), 2);
        }
        assert!(mc.is_done());
    }

    #[test]
    fn nodes_outside_levels_count_as_executed() {
        // chain(4): replay only the last two nodes.
        let g = chain(4);
        let levels = levels_of(&[&[2], &[3]]);
        let mut mc = McReplay::new(&g, levels, 0);
        assert_eq!(mc.remaining(), 2);
        assert_eq!(step(&mut mc, 1), vec![2]);
        assert_eq!(step(&mut mc, 1), vec![3]);
        assert!(mc.is_done());
    }

    #[test]
    fn levels_before_from_count_as_executed() {
        // chain(4) planned whole; the replay starts at level 2.
        let g = chain(4);
        let mut mc = McReplay::new(&g, lpf_levels(&g, 1), 2);
        assert_eq!(mc.remaining(), 2);
        assert_eq!(step(&mut mc, 1), vec![2]);
        assert_eq!(step(&mut mc, 1), vec![3]);
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
                let mut k = 0usize;
                drive(&g, levels, opt as usize, &mut |_| {
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
        McReplay::new(&g, levels_of(&[&[0, 1], &[2]]), 0);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn rejects_duplicate_nodes_in_levels() {
        let g = chain(2);
        McReplay::new(&g, levels_of(&[&[0], &[0, 1]]), 0);
    }

    #[test]
    #[should_panic(expected = "violate precedence")]
    fn rejects_levels_violating_precedence() {
        let g = chain(2);
        McReplay::new(&g, levels_of(&[&[1], &[0]]), 0);
    }
}
