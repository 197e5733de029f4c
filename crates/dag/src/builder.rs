//! Constructors for common out-tree shapes.
//!
//! These are the deterministic building blocks; randomized generators live in
//! `flowtree-workloads`. All constructors return out-trees (or out-forests)
//! whose root is node 0 unless documented otherwise.

use crate::graph::{GraphBuilder, JobGraph};

/// A chain (sequential job) of `n >= 1` nodes: `0 -> 1 -> ... -> n-1`.
///
/// Chains model purely sequential programs; the paper notes FIFO is
/// `(3 - 2/m)`-competitive on chains.
pub fn chain(n: usize) -> JobGraph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(n);
    for i in 0..n - 1 {
        b.edge(i as u32, i as u32 + 1);
    }
    b.build().expect("chain is a DAG")
}

/// A star: root 0 with `k` leaf children (nodes `1..=k`).
pub fn star(k: usize) -> JobGraph {
    let mut b = GraphBuilder::new(k + 1);
    for i in 1..=k {
        b.edge(0, i as u32);
    }
    b.build().expect("star is a DAG")
}

/// A complete `k`-ary out-tree of the given `height` (number of levels).
/// `height = 1` is a single node. Models balanced divide-and-conquer.
pub fn complete_kary(k: usize, height: usize) -> JobGraph {
    assert!(k >= 1 && height >= 1);
    // Total nodes: sum_{l=0}^{height-1} k^l.
    let mut total = 0usize;
    let mut level = 1usize;
    for _ in 0..height {
        total += level;
        level = level.checked_mul(k).expect("complete_kary size overflows usize");
    }
    let mut b = GraphBuilder::new(total);
    // BFS numbering: children of node v are k*v + 1 ..= k*v + k (as in a heap).
    for v in 0..total {
        for j in 1..=k {
            let c = k * v + j;
            if c < total {
                b.edge(v as u32, c as u32);
            }
        }
    }
    b.build().expect("complete k-ary tree is a DAG")
}

/// A caterpillar: a spine chain of length `spine`, where spine node `i`
/// additionally has `legs[i]` leaf children. `legs.len()` must equal `spine`.
///
/// Caterpillars are the "chain with leaf bundles" shape used by the packed
/// batched instance construction (DESIGN.md Section 5): their LPF schedule
/// runs spine node `i` at step `i+1` together with the legs of spine node
/// `i-1`, which lets per-column processor loads be dialed exactly.
pub fn caterpillar(spine: usize, legs: &[usize]) -> JobGraph {
    assert!(spine >= 1 && legs.len() == spine);
    let total = spine + legs.iter().sum::<usize>();
    let mut b = GraphBuilder::new(total);
    // Spine occupies ids 0..spine.
    for i in 0..spine - 1 {
        b.edge(i as u32, i as u32 + 1);
    }
    let mut next = spine as u32;
    for (i, &l) in legs.iter().enumerate() {
        for _ in 0..l {
            b.edge(i as u32, next);
            next += 1;
        }
    }
    b.build().expect("caterpillar is a DAG")
}

/// The recursion tree of quicksort on `n` elements with a fixed split ratio
/// `num/den` (e.g. 1/2 for perfect pivots, 1/10 for poor ones): a node sorting
/// `s` elements has children sorting `floor(s*num/den)` and
/// `s - 1 - floor(s*num/den)` elements; recursion stops below `cutoff`.
///
/// The paper's Section 1 calls out quicksort as a natural out-tree program.
pub fn quicksort_tree(n: usize, num: usize, den: usize, cutoff: usize) -> JobGraph {
    assert!(n >= 1 && den > 0 && num < den && cutoff >= 1);
    let mut b = GraphBuilder::new(1);
    // Iterative DFS carrying (node id, subproblem size).
    let mut stack = vec![(0u32, n)];
    while let Some((v, s)) = stack.pop() {
        if s <= cutoff {
            continue;
        }
        let left = s * num / den;
        let right = s - 1 - left;
        for child_size in [left, right] {
            if child_size >= 1 {
                let c = b.add_nodes(1);
                b.edge(v, c);
                stack.push((c, child_size));
            }
        }
    }
    b.build().expect("quicksort recursion tree is a DAG")
}

/// A layered out-tree mirroring the Section 4 lower-bound job shape: `layers`
/// layers; layer `l` (0-based) has `sizes[l]` nodes, all children of layer
/// `l-1`'s designated **key node** (its node of index 0 within the layer).
///
/// Returns the graph plus, for each layer, the node id of its key node.
pub fn keyed_layers(sizes: &[usize]) -> (JobGraph, Vec<u32>) {
    assert!(!sizes.is_empty() && sizes.iter().all(|&s| s >= 1));
    let total: usize = sizes.iter().sum();
    let mut b = GraphBuilder::new(total);
    let mut keys = Vec::with_capacity(sizes.len());
    let mut base = 0u32;
    let mut prev_key: Option<u32> = None;
    for &s in sizes {
        let key = base; // index 0 within the layer is the key node
        keys.push(key);
        if let Some(pk) = prev_key {
            for i in 0..s as u32 {
                b.edge(pk, base + i);
            }
        }
        prev_key = Some(key);
        base += s as u32;
    }
    (b.build().expect("keyed layers form a DAG"), keys)
}

/// Build an out-forest (single [`JobGraph`] with several roots) from parts.
pub fn forest(parts: &[JobGraph]) -> JobGraph {
    let refs: Vec<&JobGraph> = parts.iter().collect();
    JobGraph::disjoint_union(&refs).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;

    #[test]
    fn chain_shape() {
        let g = chain(4);
        assert_eq!(g.work(), 4);
        assert_eq!(g.span(), 4);
        assert!(classify::is_chain(&g));
        assert!(classify::is_out_tree(&g));
    }

    #[test]
    fn chain_of_one() {
        let g = chain(1);
        assert_eq!(g.work(), 1);
        assert!(classify::is_chain(&g));
    }

    #[test]
    fn star_shape() {
        let g = star(5);
        assert_eq!(g.work(), 6);
        assert_eq!(g.span(), 2);
        assert!(classify::is_out_tree(&g));
        assert!(!classify::is_chain(&g));
    }

    #[test]
    fn star_zero_children_is_single_node() {
        let g = star(0);
        assert_eq!(g.work(), 1);
        assert!(classify::is_out_tree(&g));
    }

    #[test]
    fn complete_binary_tree() {
        let g = complete_kary(2, 4);
        assert_eq!(g.work(), 15);
        assert_eq!(g.span(), 4);
        assert!(classify::is_out_tree(&g));
        assert_eq!(g.depth_counts(), &[1, 2, 4, 8]);
    }

    #[test]
    fn complete_unary_is_chain() {
        let g = complete_kary(1, 6);
        assert!(classify::is_chain(&g));
        assert_eq!(g.work(), 6);
    }

    #[test]
    fn complete_ternary_counts() {
        let g = complete_kary(3, 3);
        assert_eq!(g.work(), 1 + 3 + 9);
        assert_eq!(g.span(), 3);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(3, &[2, 0, 1]);
        assert_eq!(g.work(), 6);
        assert_eq!(g.span(), 4); // spine 3 + one leg at the end
        assert!(classify::is_out_tree(&g));
        // Depths: spine 1,2,3; legs of spine0 at depth 2 (x2); leg of spine2 at depth 4.
        assert_eq!(g.depth_counts(), &[1, 3, 1, 1]);
    }

    #[test]
    fn caterpillar_single_spine() {
        let g = caterpillar(1, &[4]);
        assert_eq!(g.work(), 5);
        assert_eq!(g.span(), 2);
    }

    #[test]
    fn quicksort_tree_is_out_tree() {
        let g = quicksort_tree(100, 1, 2, 1);
        assert!(classify::is_out_tree(&g));
        assert!(g.work() >= 50);
        // Balanced splits give logarithmic span.
        assert!(g.span() <= 9, "span {} too large for balanced splits", g.span());
    }

    #[test]
    fn quicksort_skewed_has_linear_ish_span() {
        let bal = quicksort_tree(200, 1, 2, 1);
        let skew = quicksort_tree(200, 1, 10, 1);
        assert!(skew.span() > bal.span());
    }

    #[test]
    fn quicksort_below_cutoff_is_single_node() {
        let g = quicksort_tree(5, 1, 2, 8);
        assert_eq!(g.work(), 1);
    }

    #[test]
    fn keyed_layers_structure() {
        let (g, keys) = keyed_layers(&[3, 2, 4]);
        assert_eq!(g.work(), 9);
        assert_eq!(keys, vec![0, 3, 5]);
        // All of layer 1 are children of key 0.
        assert_eq!(g.children(crate::NodeId(0)), &[3, 4]);
        // Non-key layer-0 nodes are leaves.
        assert_eq!(g.out_degree(crate::NodeId(1)), 0);
        assert_eq!(g.out_degree(crate::NodeId(2)), 0);
        assert!(classify::is_out_forest(&g));
        assert!(!classify::is_out_tree(&g)); // non-key roots in layer 0
        assert_eq!(g.span(), 3);
    }

    #[test]
    fn forest_union() {
        let g = forest(&[chain(3), star(2)]);
        assert_eq!(g.work(), 6);
        assert!(classify::is_out_forest(&g));
        assert!(!classify::is_out_tree(&g));
        assert_eq!(g.sources().len(), 2);
    }
}
