//! Heap accounting of job graphs under a counting allocator: `build`
//! retains exactly one allocation of the layout's length at the graph's
//! width and never reallocates, and cloning an instance shares every
//! graph's buffer instead of copying it.
//!
//! One `#[test]` in its own binary, so the global allocator's counters see
//! no other test's allocations. Only the test thread's calls are counted,
//! and only while a measurement is armed.

use flowtree_dag::{GraphBuilder, JobGraph};
use flowtree_sim::{Instance, JobSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);
static REALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated less bytes freed, wrapping.
static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if armed() {
            FREES.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` did to the heap: (allocations, frees, reallocations, net bytes).
fn measure<T>(f: impl FnOnce() -> T) -> (T, [usize; 4]) {
    let counters = [&ALLOCS, &FREES, &REALLOCS, &LIVE];
    for c in counters {
        c.store(0, Ordering::Relaxed);
    }
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, counters.map(|c| c.load(Ordering::Relaxed)))
}

/// Each node's parent drawn uniformly from the nodes before it.
fn recursive_tree(n: u32, rng: &mut ChaCha8Rng) -> Vec<(u32, u32)> {
    (1..n).map(|v| (rng.gen_range(0..v), v)).collect()
}

fn builder(n: u32, edges: impl IntoIterator<Item = (u32, u32)>) -> GraphBuilder {
    let mut b = GraphBuilder::new(n as usize);
    for (u, v) in edges {
        b.edge(u, v);
    }
    b
}

/// The layout's `2n + 1 + e + span` values.
fn words(g: &JobGraph) -> usize {
    2 * g.n() + 1 + g.num_edges() + g.span() as usize
}

/// The layout's values behind an `Arc`'s two counters: 2 bytes each in a
/// narrow graph (`n` and `e` at most 65,535), 4 in a wide one.
fn layout_bytes(g: &JobGraph) -> usize {
    let width = if g.n().max(g.num_edges()) <= usize::from(u16::MAX) {
        2
    } else {
        4
    };
    let header = 2 * std::mem::size_of::<usize>();
    (header + width * words(g)).next_multiple_of(std::mem::align_of::<usize>())
}

#[test]
fn build_retains_one_exact_allocation_and_clones_share_it() {
    const N: u32 = 256;
    let mut rng = ChaCha8Rng::seed_from_u64(34);
    let tree = recursive_tree(N, &mut rng);
    let mut shuffled = tree.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    // Ids reversed: every edge points backward, so `build` peels.
    let backward = tree.iter().map(|&(u, v)| (N - 1 - u, N - 1 - v));
    let builders = [builder(N, tree.clone()), builder(N, shuffled), builder(N, backward)];
    // A 65,536-node chain is wide: its values take `[lo, hi]` pairs.
    let chain = builder(1 << 16, (1..1 << 16).map(|v| (v - 1, v)));
    for b in builders.iter().chain([&chain]) {
        let (g, [allocs, frees, reallocs, live]) = measure(|| b.build().unwrap());
        assert_eq!(reallocs, 0, "build reallocated");
        assert_eq!(allocs - frees, 1, "build retained {} allocations", allocs - frees);
        assert_eq!(live, layout_bytes(&g), "retained bytes differ from the layout");
        if g.n() == N as usize {
            // Narrow: one `u16` per value after the 16-byte header (the
            // padding rounds to 8 bytes).
            #[cfg(target_pointer_width = "64")]
            assert_eq!(live, (16 + 2 * words(&g)).next_multiple_of(8));
        }
    }

    let jobs: Vec<JobSpec> = (0..1000)
        .map(|i| JobSpec {
            graph: builder(16, recursive_tree(16, &mut rng)).build().unwrap(),
            release: i / 4,
        })
        .collect();
    let inst = Instance::new(jobs);
    let (copy, [allocs, frees, reallocs, live]) = measure(|| inst.clone());
    // One allocation: the job vector. No graph buffer is copied.
    assert_eq!((allocs, frees, reallocs), (1, 0, 0));
    assert_eq!(live, 1000 * std::mem::size_of::<JobSpec>());
    assert_eq!(copy, inst);
}
