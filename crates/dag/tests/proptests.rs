//! Property-based tests for the job-graph substrate.

use flowtree_dag::builder::{caterpillar, complete_kary, quicksort_tree};
use flowtree_dag::classify;
use flowtree_dag::graph::{GraphBuilder, GraphError, JobGraph, NodeId};
use flowtree_dag::profile::DepthProfile;
use proptest::prelude::*;

/// Strategy: random DAG via random edge set on `n` nodes where every edge
/// goes from a lower to a higher id (guaranteeing acyclicity).
fn arb_dag(max_n: usize) -> impl Strategy<Value = JobGraph> {
    (1..=max_n).prop_flat_map(|n| {
        let pairs: Vec<(u32, u32)> =
            (0..n as u32).flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v))).collect();
        proptest::sample::subsequence(pairs.clone(), 0..=pairs.len()).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                b.edge(u, v);
            }
            b.build().expect("forward edges are acyclic")
        })
    })
}

/// Strategy: random out-tree by the "random recursive tree" process — node i
/// attaches to a uniformly random earlier node.
fn arb_out_tree(max_n: usize) -> impl Strategy<Value = JobGraph> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0..usize::MAX, n.saturating_sub(1)).prop_map(move |choices| {
            let mut b = GraphBuilder::new(n);
            for (i, &c) in choices.iter().enumerate() {
                let v = i + 1;
                b.edge((c % v) as u32, v as u32);
            }
            b.build().expect("recursive tree is acyclic")
        })
    })
}

/// Strategy: an [`arb_dag`] with its node ids relabelled by a random
/// permutation and its edges added in a random order. Edges no longer run
/// from low to high ids, so Kahn's peel order differs from id order, and
/// child lists arrive unsorted. Yields the node count, the edge list as
/// added, and the built graph.
fn arb_relabelled_dag(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>, JobGraph)> {
    arb_dag(max_n)
        .prop_flat_map(|g| {
            let keys = |len: usize| proptest::collection::vec(0..u64::MAX, len);
            (keys(g.n()), keys(g.num_edges()), Just(g))
        })
        .prop_map(|(node_keys, edge_keys, g)| {
            // Sorting by random keys gives a random permutation.
            let mut perm: Vec<u32> = (0..g.n() as u32).collect();
            perm.sort_by_key(|&v| node_keys[v as usize]);
            let mut order: Vec<usize> = (0..g.num_edges()).collect();
            order.sort_by_key(|&i| edge_keys[i]);
            let old = g.edges();
            let edges: Vec<(u32, u32)> = order
                .iter()
                .map(|&i| (perm[old[i].0 as usize], perm[old[i].1 as usize]))
                .collect();
            let mut b = GraphBuilder::new(g.n());
            for &(u, v) in &edges {
                b.edge(u, v);
            }
            (g.n(), edges, b.build().expect("a relabelled DAG is a DAG"))
        })
}

/// Strategy: an [`arb_dag`] with its edges added in an order the build
/// treats specially. Either its ids are kept, so every edge runs from a
/// lower to a higher id and the build takes its topological order from
/// them, with the edges in random order, ascending by tail `(u, v)` (the
/// order `edges()` returns) or ascending by head `(v, u)`; or its ids are
/// relabelled by a random permutation, with the edges ascending by tail or
/// by head. The two sorted orders skip the child-list sort check. Yields
/// the node count, the edge list as added, and the built graph.
fn arb_ordered_dag(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>, JobGraph)> {
    arb_dag(max_n)
        .prop_flat_map(|g| {
            let keys = |len: usize| proptest::collection::vec(0..u64::MAX, len);
            (0..5usize, keys(g.n()), keys(g.num_edges()), Just(g))
        })
        .prop_map(|(case, node_keys, edge_keys, g)| {
            let mut perm: Vec<u32> = (0..g.n() as u32).collect();
            if case >= 3 {
                perm.sort_by_key(|&v| node_keys[v as usize]);
            }
            let mut edges: Vec<(u32, u32)> =
                g.edges().iter().map(|&(u, v)| (perm[u as usize], perm[v as usize])).collect();
            match case {
                0 => {
                    let mut keyed: Vec<(u64, (u32, u32))> =
                        edge_keys.into_iter().zip(edges).collect();
                    keyed.sort_unstable();
                    edges = keyed.into_iter().map(|(_, e)| e).collect();
                }
                1 | 3 => edges.sort_unstable(),
                _ => edges.sort_unstable_by_key(|&(u, v)| (v, u)),
            }
            let mut b = GraphBuilder::new(g.n());
            for &(u, v) in &edges {
                b.edge(u, v);
            }
            (g.n(), edges, b.build().expect("a relabelled DAG is a DAG"))
        })
}

/// Reference heights: relax `h(u) >= h(v) + 1` over every edge until
/// nothing changes.
fn reference_heights(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut h = vec![1u32; n];
    let mut changed = true;
    while changed {
        changed = false;
        for &(u, v) in edges {
            if h[u as usize] < h[v as usize] + 1 {
                h[u as usize] = h[v as usize] + 1;
                changed = true;
            }
        }
    }
    h
}

/// Reference depths: relax `d(v) >= d(u) + 1` over every edge until
/// nothing changes.
fn reference_depths(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut d = vec![1u32; n];
    let mut changed = true;
    while changed {
        changed = false;
        for &(u, v) in edges {
            if d[v as usize] < d[u as usize] + 1 {
                d[v as usize] = d[u as usize] + 1;
                changed = true;
            }
        }
    }
    d
}

/// `in_degrees()`, `sources()` and `edge_heads()` agree with a count over
/// the edge list as added.
fn check_in_degrees(g: &JobGraph, edges: &[(u32, u32)]) {
    let mut indeg = vec![0u32; g.n()];
    for &(_, v) in edges {
        indeg[v as usize] += 1;
    }
    let sources: Vec<NodeId> = g.nodes().filter(|v| indeg[v.index()] == 0).collect();
    prop_assert_eq!(g.sources(), sources);
    prop_assert_eq!(g.in_degrees(), indeg);
    let mut heads: Vec<(u32, u32)> = edges.to_vec();
    heads.sort_unstable();
    let heads: Vec<u32> = heads.iter().map(|&(_, v)| v).collect();
    prop_assert_eq!(g.edge_heads(), &heads[..]);
}

proptest! {
    /// The structure `build` caches agrees with plain walks over the edge
    /// list, whatever the labelling and the order the edges came in.
    #[test]
    fn cached_structure_matches_reference_walks(case in arb_relabelled_dag(40)) {
        let (n, edges, g) = case;
        let h = reference_heights(n, &edges);
        let d = reference_depths(n, &edges);
        prop_assert_eq!(g.heights(), &h[..]);
        let span = *d.iter().max().unwrap();
        let mut counts = vec![0u32; span as usize];
        for &x in &d {
            counts[x as usize - 1] += 1;
        }
        prop_assert_eq!(g.depth_counts(), &counts[..]);
        prop_assert_eq!(g.span(), span as u64);
        prop_assert_eq!(*h.iter().max().unwrap(), span);
        prop_assert_eq!(g.depths(), d.clone());
        prop_assert_eq!(DepthProfile::new(&g), DepthProfile::from_depths(&d));

        let order = g.topo_order();
        let mut pos = vec![usize::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }
        prop_assert!(pos.iter().all(|&p| p != usize::MAX), "topo_order misses a node");
        for &(u, v) in &edges {
            prop_assert!(pos[u as usize] < pos[v as usize]);
        }

        let mut sorted = edges.clone();
        sorted.sort_unstable();
        prop_assert_eq!(g.edges(), sorted.clone());
        prop_assert_eq!(g.num_edges(), edges.len());
        for v in g.nodes() {
            prop_assert!(g.children(v).windows(2).all(|w| w[0] < w[1]));
        }
        check_in_degrees(&g, &edges);

        let json = serde_json::to_string(&g).unwrap();
        let back: JobGraph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, g);
    }

    /// The same agreement for the edge lists whose build skips Kahn's
    /// peel, the child-list sort check, or both.
    #[test]
    fn ordered_structure_matches_reference_walks(case in arb_ordered_dag(40)) {
        let (n, edges, g) = case;
        prop_assert_eq!(g.heights(), &reference_heights(n, &edges)[..]);
        let d = reference_depths(n, &edges);
        let mut counts = vec![0u32; *d.iter().max().unwrap() as usize];
        for &x in &d {
            counts[x as usize - 1] += 1;
        }
        prop_assert_eq!(g.depth_counts(), &counts[..]);
        prop_assert_eq!(g.depths(), d);

        let mut sorted = edges.clone();
        sorted.sort_unstable();
        prop_assert_eq!(g.edges(), sorted);
        for v in g.nodes() {
            prop_assert!(g.children(v).windows(2).all(|w| w[0] < w[1]));
        }
        check_in_degrees(&g, &edges);
    }

    #[test]
    fn topo_order_valid_for_random_dags(g in arb_dag(40)) {
        let mut pos = vec![0usize; g.n()];
        for (i, &v) in g.topo_order().iter().enumerate() {
            pos[v as usize] = i;
        }
        for (u, v) in g.edges() {
            prop_assert!(pos[u as usize] < pos[v as usize]);
        }
    }

    #[test]
    fn heights_depths_consistent(g in arb_dag(40)) {
        let h = g.heights();
        let d = g.depths();
        // Edge relations.
        for (u, v) in g.edges() {
            prop_assert!(h[u as usize] > h[v as usize]);
            prop_assert!(d[v as usize] > d[u as usize]);
        }
        // Span from either end matches.
        let span_h = *h.iter().max().unwrap() as u64;
        let span_d = *d.iter().max().unwrap() as u64;
        prop_assert_eq!(span_h, span_d);
        prop_assert_eq!(span_h, g.span());
        // For every node, h(v) + d(v) - 1 <= span (path through v).
        for v in 0..g.n() {
            prop_assert!((h[v] + d[v] - 1) as u64 <= g.span());
        }
    }

    #[test]
    fn reverse_swaps_heights_depths(g in arb_dag(30)) {
        let r = classify::reverse(&g);
        prop_assert_eq!(r.heights(), g.depths());
        prop_assert_eq!(r.depths(), g.heights());
        prop_assert_eq!(classify::reverse(&r), g.clone());
    }

    #[test]
    fn serde_roundtrip_random_dag(g in arb_dag(25)) {
        let json = serde_json::to_string(&g).unwrap();
        let back: JobGraph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn random_recursive_trees_are_out_trees(g in arb_out_tree(60)) {
        prop_assert!(classify::is_out_tree(&g));
        prop_assert!(classify::is_layered(&g));
        prop_assert_eq!(classify::num_components(&g), 1);
        // In an out-tree, edges = n - 1.
        prop_assert_eq!(g.num_edges(), g.n() - 1);
    }

    #[test]
    fn depth_profile_sums_to_work(g in arb_out_tree(60)) {
        let p = DepthProfile::new(&g);
        let total: u64 = (1..=p.max_depth()).map(|d| p.nodes_at_depth(d)).sum();
        prop_assert_eq!(total, g.work());
        prop_assert_eq!(p.total_work(), g.work());
        // W(d) = sum of counts beyond d.
        for d in 0..=p.max_depth() {
            let direct: u64 = ((d + 1)..=p.max_depth()).map(|x| p.nodes_at_depth(x)).sum();
            prop_assert_eq!(p.work_below(d), direct);
        }
    }

    #[test]
    fn opt_single_job_bounds(g in arb_out_tree(60), m in 1u64..16) {
        let p = DepthProfile::new(&g);
        let opt = p.opt_single_job(m);
        prop_assert!(opt >= g.span());
        prop_assert!(opt >= g.work().div_ceil(m));
        // And OPT is at most span + ceil(work/m) (schedule levels greedily).
        prop_assert!(opt <= g.span() + g.work().div_ceil(m));
        // Monotone in m.
        prop_assert!(p.opt_single_job(m + 1) <= opt);
    }

    #[test]
    fn out_forest_roots_are_ancestors(g in arb_out_tree(40)) {
        let roots = classify::out_forest_roots(&g);
        let mut parent = vec![None; g.n()];
        for (u, v) in g.edges() {
            parent[v as usize] = Some(u);
        }
        // Walk up from every node; must reach its recorded root.
        #[allow(clippy::needless_range_loop)] // v is a node id, not an index
        for v in 0..g.n() {
            let mut cur = v as u32;
            while let Some(p) = parent[cur as usize] {
                cur = p;
            }
            prop_assert_eq!(cur, roots[v]);
        }
    }

    #[test]
    fn union_preserves_work_span(g in arb_out_tree(30), h in arb_out_tree(30)) {
        let (u, offsets) = JobGraph::disjoint_union(&[&g, &h]);
        prop_assert_eq!(u.work(), g.work() + h.work());
        prop_assert_eq!(u.span(), g.span().max(h.span()));
        prop_assert_eq!(offsets, vec![0, g.n() as u32]);
        prop_assert!(classify::is_out_forest(&u));
    }
}

/// Which error a bad edge list gets: each edge in insertion order is
/// checked for range and then self-loop; duplicates are checked after every
/// edge passed those, smallest `(u, v)` first; a cycle is reported last.
#[test]
fn builder_error_precedence() {
    use GraphError::*;
    type Case = (usize, &'static [(u32, u32)], GraphError);
    let table: &[Case] = &[
        (0, &[], Empty),
        // One edge both out of range and a self-loop: range wins.
        (2, &[(2, 2)], NodeOutOfRange { node: 2, n: 2 }),
        (2, &[(0, 5)], NodeOutOfRange { node: 5, n: 2 }),
        (2, &[(7, 9)], NodeOutOfRange { node: 7, n: 2 }),
        // A later out-of-range edge beats an earlier duplicate.
        (3, &[(0, 1), (0, 1), (1, 3)], NodeOutOfRange { node: 3, n: 3 }),
        // Self-loop before duplicate, and before cycle.
        (3, &[(0, 1), (0, 1), (2, 2)], SelfLoop(2)),
        (3, &[(0, 1), (1, 0), (1, 1)], SelfLoop(1)),
        // Duplicate before cycle.
        (3, &[(0, 1), (1, 0), (0, 1)], DuplicateEdge(0, 1)),
        // Two duplicates: the smaller (u, v) is reported, whatever the order.
        (4, &[(2, 3), (2, 3), (0, 2), (0, 2)], DuplicateEdge(0, 2)),
        (4, &[(1, 3), (1, 2), (1, 3), (1, 2)], DuplicateEdge(1, 2)),
        (3, &[(0, 1), (1, 2), (2, 0)], Cyclic),
        // Forward lists, whose build skips the peel: a duplicate breaks
        // head order and tail order alike, and is still reported.
        (4, &[(0, 1), (0, 2), (1, 3), (1, 3)], DuplicateEdge(1, 3)),
        (4, &[(0, 1), (0, 2), (0, 2), (2, 3)], DuplicateEdge(0, 2)),
        (4, &[(0, 2), (1, 3), (1, 3), (0, 2)], DuplicateEdge(0, 2)),
        // And out-of-range and self-loop edges after a duplicate win.
        (4, &[(0, 1), (0, 1), (1, 2), (2, 4)], NodeOutOfRange { node: 4, n: 4 }),
        (4, &[(0, 1), (0, 1), (1, 2), (2, 2)], SelfLoop(2)),
    ];
    for (n, edges, want) in table {
        let mut b = GraphBuilder::new(*n);
        for &(u, v) in *edges {
            b.edge(u, v);
        }
        assert_eq!(b.build().unwrap_err(), *want, "n = {n}, edges = {edges:?}");
    }
}

#[test]
fn deterministic_builders_are_out_trees() {
    for g in [
        complete_kary(4, 4),
        caterpillar(10, &[0, 1, 2, 3, 4, 0, 0, 2, 1, 9]),
        quicksort_tree(500, 1, 3, 2),
    ] {
        assert!(classify::is_out_tree(&g));
    }
}
