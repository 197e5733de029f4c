//! Build-kernel timings: `GraphBuilder::build` on 256-node random
//! recursive trees along each of its paths, and the ChaCha8 `gen_range`
//! draws a seeded workload spends generating such trees.
//!
//! ```sh
//! cargo run --release --example graph_build
//! ```
//!
//! The three edge lists are the ones `build` treats differently:
//!
//! * `canonical`: each node's edge from its parent, in node order, as the
//!   tree generators emit them (forward and ascending by head): the two
//!   edge sweeps;
//! * `shuffled`: the same edges in random order (forward, not canonical):
//!   the per-node sort check, with the ids as the topological order;
//! * `relabelled`: random DAGs (a second parent on about half the nodes)
//!   with their ids permuted and their edges ascending by `(u, v)`, as a
//!   decoded job arrives: Kahn's peel.
//!
//! Each case is timed best of a few repetitions over the same edge lists.
//! A counting allocator measures the heap the built graphs keep, which is
//! the buffer words per node that each retained job costs.

use flowtree::dag::{GraphBuilder, JobGraph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: usize = 256;
const TREES: usize = 1024;
const REPS: usize = 5;
const DRAWS: usize = 1 << 20;

/// Each node's parent drawn uniformly from the nodes before it.
fn recursive_tree(rng: &mut ChaCha8Rng) -> Vec<(u32, u32)> {
    (1..NODES as u32).map(|v| (rng.gen_range(0..v), v)).collect()
}

/// A random recursive tree with a second, distinct parent on about half of
/// the nodes past the first two, its ids permuted, and its edges ascending
/// by `(u, v)`.
fn relabelled_dag(rng: &mut ChaCha8Rng) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for v in 1..NODES as u32 {
        let p = rng.gen_range(0..v);
        edges.push((p, v));
        if v >= 2 && rng.gen_bool(0.5) {
            let q = rng.gen_range(0..v - 1);
            edges.push((if q >= p { q + 1 } else { q }, v));
        }
    }
    let mut perm: Vec<u32> = (0..NODES as u32).collect();
    shuffle(&mut perm, rng);
    let mut edges: Vec<(u32, u32)> =
        edges.iter().map(|&(u, v)| (perm[u as usize], perm[v as usize])).collect();
    edges.sort_unstable();
    edges
}

fn shuffle<T>(xs: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

fn builder(edges: &[(u32, u32)]) -> GraphBuilder {
    let mut b = GraphBuilder::new(NODES);
    for &(u, v) in edges {
        b.edge(u, v);
    }
    b
}

/// Best time per node over `REPS` builds of every list, and the heap words
/// per node the last repetition's graphs keep.
fn time_builds(builders: &[GraphBuilder]) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut words = 0.0;
    let mut graphs: Vec<JobGraph> = Vec::with_capacity(builders.len());
    for _ in 0..REPS {
        graphs.clear();
        let before = LIVE.load(Ordering::Relaxed);
        let t0 = Instant::now();
        for b in builders {
            graphs.push(b.build().expect("generated lists are DAGs"));
        }
        let ns = t0.elapsed().as_nanos() as f64;
        best = best.min(ns / (builders.len() * NODES) as f64);
        words =
            (LIVE.load(Ordering::Relaxed) - before) as f64 / 4.0 / (builders.len() * NODES) as f64;
    }
    black_box(&graphs);
    (best, words)
}

/// Best time per `gen_range` draw, with bounds cycling as a recursive tree's
/// parent draws do.
fn time_gen_range(rng: &mut ChaCha8Rng) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut acc = 0u32;
        let t0 = Instant::now();
        for i in 0..DRAWS {
            acc = acc.wrapping_add(rng.gen_range(0..(i % (NODES - 1)) as u32 + 1));
        }
        let ns = t0.elapsed().as_nanos() as f64;
        black_box(acc);
        best = best.min(ns / DRAWS as f64);
    }
    best
}

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(30);
    let trees: Vec<Vec<(u32, u32)>> = (0..TREES).map(|_| recursive_tree(&mut rng)).collect();
    let canonical: Vec<GraphBuilder> = trees.iter().map(|e| builder(e)).collect();
    let shuffled: Vec<GraphBuilder> = trees
        .iter()
        .map(|e| {
            let mut e = e.clone();
            shuffle(&mut e, &mut rng);
            builder(&e)
        })
        .collect();
    let relabelled: Vec<GraphBuilder> =
        (0..TREES).map(|_| builder(&relabelled_dag(&mut rng))).collect();

    println!("GraphBuilder::build, {TREES} lists of {NODES} nodes, best of {REPS}:");
    println!("{:<12} {:>8} {:>12}", "edge list", "ns/node", "words/node");
    for (name, builders) in
        [("canonical", &canonical), ("shuffled", &shuffled), ("relabelled", &relabelled)]
    {
        let (ns, words) = time_builds(builders);
        println!("{name:<12} {ns:>8.1} {words:>12.2}");
    }
    println!("ChaCha8 gen_range: {:.1} ns/draw ({DRAWS} draws)", time_gen_range(&mut rng));
}
