//! Structural classification of job graphs.
//!
//! The paper's results are stratified by job structure: chains (classical
//! FIFO results), out-trees/out-forests (Sections 4-5), series-parallel DAGs
//! and general DAGs (Section 6 and the open problems). These predicates let
//! tests and generators assert they produce what they claim to.

use crate::graph::{JobGraph, NodeId};

/// Is `g` a single chain (each node has <= 1 parent and <= 1 child, one
/// component)?
pub fn is_chain(g: &JobGraph) -> bool {
    is_out_forest(g) && is_in_forest(g) && g.sources().len() == 1 && g.num_edges() == g.n() - 1
}

/// Is `g` an out-forest: every node has at most one parent (so each component
/// is a rooted tree with edges directed away from the root)?
pub fn is_out_forest(g: &JobGraph) -> bool {
    g.in_degrees().iter().all(|&d| d <= 1)
}

/// Is `g` a single out-tree: an out-forest with exactly one root?
pub fn is_out_tree(g: &JobGraph) -> bool {
    is_out_forest(g) && g.sources().len() == 1
}

/// Is `g` an in-forest: every node has at most one child? (The mirror class;
/// Hu's classical algorithm applies to these.)
pub fn is_in_forest(g: &JobGraph) -> bool {
    g.nodes().all(|v| g.out_degree(v) <= 1)
}

/// Is `g` **layered**: the depth of every edge's endpoint differs by exactly
/// one, i.e. every edge connects consecutive depth levels? The Section 4
/// lower-bound jobs are layered out-forests.
pub fn is_layered(g: &JobGraph) -> bool {
    let d = g.depths();
    g.edges().iter().all(|&(u, v)| d[v as usize] == d[u as usize] + 1)
}

/// Reverse all edges, turning an out-forest into an in-forest and vice versa.
/// Time-reversal duality: a schedule for `g` read backwards is a schedule for
/// `reverse(g)` with releases and deadlines swapped. Used to apply Hu's
/// in-forest algorithm to out-forests.
pub fn reverse(g: &JobGraph) -> JobGraph {
    let mut b = crate::graph::GraphBuilder::new(g.n());
    for (u, v) in g.edges() {
        b.edge(v, u);
    }
    b.build().expect("reverse of a DAG is a DAG")
}

/// Number of connected components of the underlying undirected graph
/// (union-find). An out-forest with `k` roots has `k` components. Public
/// so the dag proptests can check every generated out-tree is connected.
pub fn num_components(g: &JobGraph) -> usize {
    let mut parent: Vec<u32> = (0..g.n() as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for (u, v) in g.edges() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru as usize] = rv;
        }
    }
    let mut roots = 0;
    for v in 0..g.n() as u32 {
        if find(&mut parent, v) == v {
            roots += 1;
        }
    }
    roots
}

/// The root of each node in an out-forest: `roots[v]` is the source node of
/// the tree containing `v`. Panics if `g` is not an out-forest.
pub fn out_forest_roots(g: &JobGraph) -> Vec<u32> {
    assert!(is_out_forest(g), "out_forest_roots requires an out-forest");
    // Each root's id, pushed along the child lists in topological order.
    let mut root = vec![u32::MAX; g.n()];
    for v in g.topo_order() {
        if root[v as usize] == u32::MAX {
            root[v as usize] = v;
        }
        let r = root[v as usize];
        g.children(NodeId(v)).iter().for_each(|c| root[c as usize] = r);
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{caterpillar, chain, complete_kary, forest, star};
    use crate::graph::GraphBuilder;

    fn diamond() -> JobGraph {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(0, 2).edge(1, 3).edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn chain_classification() {
        let g = chain(5);
        assert!(is_chain(&g));
        assert!(is_out_tree(&g));
        assert!(is_in_forest(&g));
        assert!(is_layered(&g));
        assert_eq!(num_components(&g), 1);
    }

    #[test]
    fn single_node_is_everything() {
        let g = chain(1);
        assert!(is_chain(&g) && is_out_tree(&g) && is_in_forest(&g) && is_layered(&g));
    }

    #[test]
    fn star_is_out_tree_not_in_tree() {
        let g = star(3);
        assert!(is_out_tree(&g));
        assert!(!is_in_forest(&g));
        assert!(is_layered(&g));
    }

    #[test]
    fn diamond_is_neither_forest() {
        let g = diamond();
        assert!(!is_out_forest(&g));
        assert!(!is_in_forest(&g));
        assert!(is_layered(&g));
        assert_eq!(num_components(&g), 1);
    }

    #[test]
    fn non_layered_example() {
        // 0 -> 1 -> 2 and 0 -> 2 would be a skip edge... but that's not an
        // out-tree. Use out-tree: 0 -> 1, 0 -> 2, 2 -> 3. Depths 1,2,2,3: all
        // edges step one level, so layered. A genuinely non-layered out-tree
        // is impossible (tree depths always step by one); check a DAG instead.
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1).edge(1, 2).edge(0, 2);
        let g = b.build().unwrap();
        assert!(!is_layered(&g));
    }

    #[test]
    fn out_trees_are_always_layered() {
        for g in [star(4), complete_kary(3, 3), caterpillar(4, &[1, 0, 2, 0])] {
            assert!(is_layered(&g), "every out-tree is layered by depth");
        }
    }

    #[test]
    fn reverse_swaps_tree_kinds() {
        let g = star(4);
        let r = reverse(&g);
        assert!(is_in_forest(&r));
        assert_eq!(r.sinks().len(), 1);
        assert!(!is_out_tree(&r));
        assert_eq!(reverse(&r), g);
        assert_eq!(r.span(), g.span());
        assert_eq!(r.work(), g.work());
    }

    #[test]
    fn forest_components_and_roots() {
        let g = forest(&[chain(3), star(2), chain(1)]);
        assert!(is_out_forest(&g) && !is_out_tree(&g));
        assert_eq!(num_components(&g), 3);
        let roots = out_forest_roots(&g);
        // chain(3) occupies 0..3 rooted at 0; star(2) occupies 3..6 rooted at
        // 3; chain(1) is node 6.
        assert_eq!(roots, vec![0, 0, 0, 3, 3, 3, 6]);
    }

    #[test]
    #[should_panic(expected = "requires an out-forest")]
    fn roots_panic_on_dag() {
        out_forest_roots(&diamond());
    }
}
