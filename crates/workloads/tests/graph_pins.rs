//! Pinned generated graphs: every generator in `trees` and `spdags` and
//! every `flowtree_dag::builder` shape, at sizes 1, 16 and 256, drawn four
//! times from a fixed seed, must hash to the pinned value. The hash covers
//! `n()`, `edges()`, `heights()` and `depth_counts()`, so a change to a
//! generator's random stream, to its shape, or to the structure
//! `GraphBuilder::build` computes moves a digest.
//!
//! The same table records which generators emit *forward* graphs (every
//! edge `(u, v)` has `u < v`): those are the graphs whose build takes its
//! topological order from the ids and skips Kahn's peel. Every generator
//! does; only `classify::reverse`'s graphs go through the peel. Whether a
//! generator adds its edges in canonical order, which decides whether the
//! build sweeps the edges or walks the nodes, leaves no trace in the built
//! graph, so it is not pinned here.
//!
//! The digests are regenerated only when a change to a generated graph is
//! intended: run with `PRINT_DIGESTS=1` and `--nocapture` to print the
//! current table.

use flowtree_dag::{builder, classify, JobGraph};
use flowtree_workloads::{rng, spdags, trees, Rng};

/// The size parameter each generator is called with.
const SIZES: [usize; 3] = [1, 16, 256];

/// Graphs drawn from each generator per size, in one stream.
const DRAWS: usize = 4;

/// Seed of the generator stream for one size.
fn seed(size: usize) -> u64 {
    0x5eed ^ size as u64
}

/// A generator: the graphs it yields for one size parameter.
type Gen = fn(usize, &mut Rng) -> Vec<JobGraph>;

/// Layer sizes 1, 2, 3, … summing to exactly `n`.
fn layer_sizes(n: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut left = n;
    while left > 0 {
        let s = (sizes.len() + 1).min(left);
        sizes.push(s);
        left -= s;
    }
    sizes
}

/// Every generator, by name. `classify::reverse` is the one row whose
/// graphs are not forward: it flips every edge of a forward tree.
const GENERATORS: &[(&str, Gen)] = &[
    ("trees::random_recursive_tree", |n, r| vec![trees::random_recursive_tree(n, r)]),
    ("trees::preferential_tree", |n, r| vec![trees::preferential_tree(n, 0.5, r)]),
    ("trees::galton_watson", |n, r| {
        vec![trees::galton_watson(n, &[0.1, 0.2, 0.4, 0.3], r)]
    }),
    ("trees::random_caterpillar", |n, r| vec![trees::random_caterpillar(n, 6, r)]),
    ("trees::random_quicksort_tree", |n, r| {
        vec![trees::random_quicksort_tree(n, 2, r)]
    }),
    ("trees::shape_catalogue", |n, r| {
        trees::shape_catalogue(n, r).into_iter().map(|(_, g)| g).collect()
    }),
    ("spdags::random_sp_expr", |n, r| vec![spdags::random_sp_expr(n, r).lower()]),
    ("builder::chain", |n, _| vec![builder::chain(n)]),
    ("builder::star", |n, _| vec![builder::star(n - 1)]),
    ("builder::complete_kary", |n, _| {
        vec![builder::complete_kary(2, (n + 1).ilog2() as usize)]
    }),
    ("builder::caterpillar", |n, _| {
        let legs: Vec<usize> = (0..n).map(|i| i % 3).collect();
        vec![builder::caterpillar(n, &legs)]
    }),
    ("builder::quicksort_tree", |n, _| vec![builder::quicksort_tree(n, 1, 3, 2)]),
    ("builder::keyed_layers", |n, _| vec![builder::keyed_layers(&layer_sizes(n)).0]),
    ("builder::forest", |n, _| {
        vec![builder::forest(&[builder::chain(n), builder::star(n - 1)])]
    }),
    ("classify::reverse", |n, r| {
        vec![classify::reverse(&trees::random_recursive_tree(n, r))]
    }),
];

/// Pinned digests per generator, one per size of [`SIZES`], and whether
/// every graph it yields is forward.
const PINNED: &[(&str, bool, [u64; 3])] = &[
    (
        "trees::random_recursive_tree",
        true,
        [0xdf1e2f9d54ee5e25, 0x56406b8926c87129, 0xe76fe7f23d130726],
    ),
    (
        "trees::preferential_tree",
        true,
        [0xdf1e2f9d54ee5e25, 0x6d6249ceb4c17aae, 0x8954e509bde76f8f],
    ),
    (
        "trees::galton_watson",
        true,
        [0xdf1e2f9d54ee5e25, 0x7067d3a06ef53076, 0xb5a8176310d2c57e],
    ),
    (
        "trees::random_caterpillar",
        true,
        [0x0e9aec0ad33616a6, 0x08f8b2d15aee4391, 0x1734dbf37ea548d8],
    ),
    (
        "trees::random_quicksort_tree",
        true,
        [0xdf1e2f9d54ee5e25, 0x3bdb34d0168b7e2b, 0xac4fc3e7f7d93380],
    ),
    (
        "trees::shape_catalogue",
        true,
        [0xf059274740999dc5, 0x760fccf64f939563, 0xf42f28b86b49ec23],
    ),
    (
        "spdags::random_sp_expr",
        true,
        [0xdf1e2f9d54ee5e25, 0x1f2df7c0d589ebd5, 0xc16727712bcb1b28],
    ),
    (
        "builder::chain",
        true,
        [0xdf1e2f9d54ee5e25, 0xa51fcaceab269725, 0xa5c7d091fe4c8865],
    ),
    (
        "builder::star",
        true,
        [0xdf1e2f9d54ee5e25, 0x81e829c77fc74da5, 0x9c266b90080606e5],
    ),
    (
        "builder::complete_kary",
        true,
        [0xdf1e2f9d54ee5e25, 0xddf48757ca8f4ba5, 0xa606f18da9d69825],
    ),
    (
        "builder::caterpillar",
        true,
        [0xdf1e2f9d54ee5e25, 0x8f6d67661bda5425, 0xad7ebc419f780b25],
    ),
    (
        "builder::quicksort_tree",
        true,
        [0xdf1e2f9d54ee5e25, 0xea134796cdbf7565, 0xa9d6ee2f6f636725],
    ),
    (
        "builder::keyed_layers",
        true,
        [0xdf1e2f9d54ee5e25, 0x3be6c9868833e665, 0x7f22dc90dbd6ff3d],
    ),
    (
        "builder::forest",
        true,
        [0xd260e38903eb45a5, 0x68344e2850916425, 0x81d0c01cff0f8aa5],
    ),
    (
        "classify::reverse",
        false,
        [0xdf1e2f9d54ee5e25, 0x2e9f3d693140ecc1, 0xf4ba5870bf98e395],
    ),
];

/// FNV-1a over each graph's node count, edges, heights and depth counts.
fn digest(graphs: &[JobGraph]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for g in graphs {
        eat(g.n() as u64);
        let edges = g.edges();
        eat(edges.len() as u64);
        for (u, v) in edges {
            eat(u64::from(u));
            eat(u64::from(v));
        }
        g.heights().iter().for_each(|&x| eat(u64::from(x)));
        eat(g.span());
        g.depth_counts().iter().for_each(|&x| eat(u64::from(x)));
    }
    h
}

/// Every edge points from a lower id to a higher one.
fn is_forward(g: &JobGraph) -> bool {
    g.edges().iter().all(|&(u, v)| u < v)
}

#[test]
fn generated_graphs_match_pinned_digests() {
    let mut got = Vec::new();
    for &(name, gen) in GENERATORS {
        let mut forward = true;
        let digests = SIZES.map(|size| {
            let mut r = rng(seed(size));
            let graphs: Vec<JobGraph> = (0..DRAWS).flat_map(|_| gen(size, &mut r)).collect();
            forward &= graphs.iter().all(is_forward);
            digest(&graphs)
        });
        got.push((name.to_string(), forward, digests));
    }
    if std::env::var_os("PRINT_DIGESTS").is_some() {
        for (name, forward, [a, b, c]) in &got {
            println!("    (\"{name}\", {forward}, [{a:#018x}, {b:#018x}, {c:#018x}]),");
        }
    }
    let want: Vec<(String, bool, [u64; 3])> =
        PINNED.iter().map(|&(n, f, d)| (n.to_string(), f, d)).collect();
    assert_eq!(got, want);
}
