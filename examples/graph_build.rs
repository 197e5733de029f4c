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
//! A counting allocator measures the heap the built graphs keep: the bytes
//! per node that each retained job costs, its buffer's shared header
//! included. The example exits 1 if the graphs keep more than their layout,
//! `2n + 1 + e + span` words behind the header each.
//!
//! It also times cloning an instance of 4,096 16-node jobs, as a replay
//! source does, in ns and heap bytes per job: a clone shares every graph's
//! buffer, so it copies only the job records.

use flowtree::dag::{GraphBuilder, JobGraph};
use flowtree::sim::{Instance, JobSpec};
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
const CLONE_JOBS: usize = 4096;

/// Each node's parent drawn uniformly from the nodes before it.
fn recursive_tree(nodes: usize, rng: &mut ChaCha8Rng) -> Vec<(u32, u32)> {
    (1..nodes as u32).map(|v| (rng.gen_range(0..v), v)).collect()
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

fn builder(nodes: usize, edges: &[(u32, u32)]) -> GraphBuilder {
    let mut b = GraphBuilder::new(nodes);
    for &(u, v) in edges {
        b.edge(u, v);
    }
    b
}

/// Heap bytes a graph's layout needs: `2n + 1 + e + span` words behind an
/// `Arc`'s two counters.
fn layout_bytes(g: &JobGraph) -> usize {
    let words = 2 * g.n() + 1 + g.num_edges() + g.span() as usize;
    (2 * std::mem::size_of::<usize>() + 4 * words).next_multiple_of(std::mem::align_of::<usize>())
}

/// Best time per node over `REPS` builds of every list, the heap bytes per
/// node the last repetition's graphs keep, and the bytes per node their
/// layouts need.
fn time_builds(builders: &[GraphBuilder]) -> (f64, f64, f64) {
    let mut best = f64::INFINITY;
    let mut kept = 0;
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
        kept = LIVE.load(Ordering::Relaxed) - before;
    }
    let layout: usize = graphs.iter().map(layout_bytes).sum();
    let nodes = (builders.len() * NODES) as f64;
    (best, kept as f64 / nodes, layout as f64 / nodes)
}

/// Best time per job over `REPS` clones of `inst`, and the heap bytes per
/// job a clone allocates.
fn time_clone(inst: &Instance) -> (f64, f64) {
    let jobs = inst.num_jobs();
    let mut best = f64::INFINITY;
    let mut bytes = 0;
    for _ in 0..REPS {
        let before = LIVE.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let copy = black_box(inst.clone());
        let ns = t0.elapsed().as_nanos() as f64;
        bytes = LIVE.load(Ordering::Relaxed) - before;
        drop(copy);
        best = best.min(ns / jobs as f64);
    }
    (best, bytes as f64 / jobs as f64)
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
    let trees: Vec<Vec<(u32, u32)>> = (0..TREES).map(|_| recursive_tree(NODES, &mut rng)).collect();
    let canonical: Vec<GraphBuilder> = trees.iter().map(|e| builder(NODES, e)).collect();
    let shuffled: Vec<GraphBuilder> = trees
        .iter()
        .map(|e| {
            let mut e = e.clone();
            shuffle(&mut e, &mut rng);
            builder(NODES, &e)
        })
        .collect();
    let relabelled: Vec<GraphBuilder> =
        (0..TREES).map(|_| builder(NODES, &relabelled_dag(&mut rng))).collect();

    println!("GraphBuilder::build, {TREES} lists of {NODES} nodes, best of {REPS}:");
    println!(
        "{:<12} {:>8} {:>12} {:>14}",
        "edge list", "ns/node", "bytes/node", "layout B/node"
    );
    let mut over = false;
    for (name, builders) in
        [("canonical", &canonical), ("shuffled", &shuffled), ("relabelled", &relabelled)]
    {
        let (ns, kept, layout) = time_builds(builders);
        println!("{name:<12} {ns:>8.1} {kept:>12.2} {layout:>14.2}");
        over |= kept > layout;
    }
    println!("ChaCha8 gen_range: {:.1} ns/draw ({DRAWS} draws)", time_gen_range(&mut rng));

    let inst = Instance::new(
        (0..CLONE_JOBS)
            .map(|i| JobSpec {
                graph: builder(16, &recursive_tree(16, &mut rng)).build().expect("a tree"),
                release: i as u64,
            })
            .collect(),
    );
    let (ns, bytes) = time_clone(&inst);
    println!(
        "Instance::clone, {CLONE_JOBS} jobs of 16 nodes: {ns:.1} ns/job, {bytes:.1} bytes/job"
    );

    if over {
        eprintln!("graph_build: built graphs keep more heap than their layout");
        std::process::exit(1);
    }
}
