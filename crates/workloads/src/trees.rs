//! Random out-tree generators.
//!
//! Out-trees are the natural shape of tail-recursive fork-heavy programs
//! (the paper's quicksort example). These generators cover a spectrum of
//! shapes: balanced (logarithmic span), skewed (polynomial span), and
//! chain-dominated (span ≈ work).

use crate::Rng;
use flowtree_dag::builder;
use flowtree_dag::{GraphBuilder, JobGraph};
use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng as _;

/// Uniform random recursive tree on `n` nodes: node `i` attaches to a
/// uniformly random earlier node. Expected span is O(log n); shapes are
/// bushy near the root.
pub fn random_recursive_tree(n: usize, rng: &mut Rng) -> JobGraph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        b.edge(parent as u32, v as u32);
    }
    b.build().expect("recursive tree is a DAG")
}

/// Preferential-attachment tree: node `i` attaches to an earlier node with
/// probability proportional to `degree + bias`. Small `bias` produces heavy
/// hubs (star-like); large `bias` approaches the uniform recursive tree.
pub fn preferential_tree(n: usize, bias: f64, rng: &mut Rng) -> JobGraph {
    assert!(n >= 1 && bias > 0.0);
    let mut b = GraphBuilder::new(n);
    let mut weight = vec![bias; n];
    for v in 1..n {
        let dist = WeightedIndex::new(&weight[..v]).expect("positive weights");
        let parent = dist.sample(rng);
        weight[parent] += 1.0;
        b.edge(parent as u32, v as u32);
    }
    b.build().expect("preferential tree is a DAG")
}

/// Galton–Watson out-tree, BFS-truncated at `max_n` nodes: each node has
/// `k` children with probability `child_weights[k]`. The classical model of
/// recursive fan-out.
pub fn galton_watson(max_n: usize, child_weights: &[f64], rng: &mut Rng) -> JobGraph {
    assert!(max_n >= 1 && !child_weights.is_empty());
    let dist = WeightedIndex::new(child_weights).expect("valid weights");
    let mut b = GraphBuilder::new(1);
    let mut frontier = std::collections::VecDeque::from([0u32]);
    while let Some(v) = frontier.pop_front() {
        let k = dist.sample(rng);
        for _ in 0..k {
            if b.n() >= max_n {
                return b.build().expect("GW tree is a DAG");
            }
            let c = b.add_nodes(1);
            b.edge(v, c);
            frontier.push_back(c);
        }
    }
    b.build().expect("GW tree is a DAG")
}

/// Random caterpillar: spine of length `spine`, each spine node gets
/// `0..=max_legs` leaf children.
pub fn random_caterpillar(spine: usize, max_legs: usize, rng: &mut Rng) -> JobGraph {
    let legs: Vec<usize> = (0..spine).map(|_| rng.gen_range(0..=max_legs)).collect();
    builder::caterpillar(spine, &legs)
}

/// Randomized quicksort recursion tree on `n` elements: each node picks a
/// uniform pivot; recursion stops below `cutoff`.
pub fn random_quicksort_tree(n: usize, cutoff: usize, rng: &mut Rng) -> JobGraph {
    assert!(n >= 1 && cutoff >= 1);
    let mut b = GraphBuilder::new(1);
    let mut stack = vec![(0u32, n)];
    while let Some((v, s)) = stack.pop() {
        if s <= cutoff {
            continue;
        }
        let pivot = rng.gen_range(0..s);
        for part in [pivot, s - 1 - pivot] {
            if part >= 1 {
                let c = b.add_nodes(1);
                b.edge(v, c);
                stack.push((c, part));
            }
        }
    }
    b.build().expect("quicksort tree is a DAG")
}

/// Child weights of the catalogue's Galton–Watson shape (mean 1.4). The
/// process still dies out with probability 1/2: the extinction probability
/// solves `q = 0.3 + 0.2q + 0.3q² + 0.2q³`.
const GW_WEIGHTS: [f64; 4] = [0.3, 0.2, 0.3, 0.2];

/// Draws [`shape_catalogue`] makes for its Galton–Watson shape before it
/// keeps a tree below half the target size (each draw falls short with
/// probability about 1/2).
const GW_TRIES: usize = 32;

/// A [`GW_WEIGHTS`] Galton–Watson tree capped at `n` nodes and conditioned
/// on reaching half of them: redraw from the same stream until one does,
/// keeping the last of [`GW_TRIES`] draws if none does.
fn galton_watson_surviving(n: usize, rng: &mut Rng) -> JobGraph {
    let mut g = galton_watson(n, &GW_WEIGHTS, rng);
    for _ in 1..GW_TRIES {
        if 2 * g.n() >= n {
            break;
        }
        g = galton_watson(n, &GW_WEIGHTS, rng);
    }
    g
}

/// A named catalogue of tree shapes used by experiments ("one of each
/// flavour"), deterministic in the seed. Every shape has about `n` nodes.
pub fn shape_catalogue(n: usize, rng: &mut Rng) -> Vec<(&'static str, JobGraph)> {
    vec![
        ("recursive", random_recursive_tree(n, rng)),
        ("preferential", preferential_tree(n, 0.5, rng)),
        ("galton-watson", galton_watson_surviving(n, rng)),
        ("caterpillar", random_caterpillar((n / 4).max(1), 6, rng)),
        ("quicksort", random_quicksort_tree(n * 2, 2, rng)),
        ("chain", builder::chain(n)),
        ("star", builder::star(n.saturating_sub(1))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::classify;

    #[test]
    fn recursive_tree_is_out_tree() {
        let mut r = crate::rng(1);
        for n in [1usize, 2, 17, 100] {
            let g = random_recursive_tree(n, &mut r);
            assert_eq!(g.n(), n);
            assert!(classify::is_out_tree(&g));
        }
    }

    #[test]
    fn recursive_tree_deterministic_per_seed() {
        let a = random_recursive_tree(50, &mut crate::rng(7));
        let b = random_recursive_tree(50, &mut crate::rng(7));
        let c = random_recursive_tree(50, &mut crate::rng(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn preferential_tree_hubbier_than_uniform() {
        // With tiny bias, max out-degree should (typically) exceed the
        // uniform tree's. Use a fixed seed so this is deterministic.
        let n = 300;
        let hub = preferential_tree(n, 0.1, &mut crate::rng(3));
        let uni = random_recursive_tree(n, &mut crate::rng(3));
        let max_deg = |g: &JobGraph| g.nodes().map(|v| g.out_degree(v)).max().unwrap();
        assert!(classify::is_out_tree(&hub));
        assert!(max_deg(&hub) > max_deg(&uni));
    }

    #[test]
    fn galton_watson_respects_cap() {
        let mut r = crate::rng(9);
        let g = galton_watson(40, &[0.2, 0.3, 0.5], &mut r);
        assert!(g.n() <= 40);
        assert!(classify::is_out_tree(&g));
    }

    #[test]
    fn galton_watson_subcritical_dies_out() {
        // E[children] = 0.3 < 1: trees stay tiny even with a huge cap.
        let mut r = crate::rng(10);
        let sizes: Vec<usize> =
            (0..30).map(|_| galton_watson(100_000, &[0.7, 0.3], &mut r).n()).collect();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(avg < 50.0, "subcritical GW exploded: avg {avg}");
    }

    #[test]
    fn random_caterpillar_spine_span() {
        let mut r = crate::rng(4);
        let g = random_caterpillar(20, 3, &mut r);
        assert!(classify::is_out_tree(&g));
        assert!(g.span() >= 20);
        assert!(g.span() <= 21);
    }

    #[test]
    fn quicksort_tree_out_tree_and_bounded() {
        let mut r = crate::rng(5);
        let g = random_quicksort_tree(500, 4, &mut r);
        assert!(classify::is_out_tree(&g));
        assert!(g.work() <= 500);
        assert!(g.span() >= (500f64.log2() as u64) / 2);
    }

    #[test]
    fn catalogue_galton_watson_reaches_half_its_target() {
        // Unconditioned, about half of these draws die out near the root.
        for seed in 0..64 {
            let g = galton_watson_surviving(2000, &mut crate::rng(seed));
            assert!(g.n() >= 1000, "seed {seed}: {} nodes", g.n());
            assert!(classify::is_out_tree(&g));
        }
        // E5's full-effort catalogue, whose unconditioned draw was 1 node.
        for (name, g) in shape_catalogue(20_000, &mut crate::rng(7)) {
            assert!(2 * g.n() >= 20_000, "{name}: {} nodes", g.n());
        }
    }

    #[test]
    fn catalogue_covers_shapes() {
        let mut r = crate::rng(6);
        let cat = shape_catalogue(32, &mut r);
        assert_eq!(cat.len(), 7);
        for (name, g) in &cat {
            assert!(classify::is_out_forest(g), "{name} is not an out-forest");
            assert!(g.work() >= 1);
        }
        // Spread of spans: chain has span n, star has span 2.
        let span = |name: &str| cat.iter().find(|(k, _)| *k == name).unwrap().1.span();
        assert_eq!(span("chain"), 32);
        assert_eq!(span("star"), 2);
    }
}
