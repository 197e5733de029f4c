//! Parallel parameter sweeps.
//!
//! Experiments map a config list through an expensive measurement. The
//! fan-out follows the data-race-free idiom of the project's HPC guides:
//! scoped worker threads claim input indices from one atomic counter and
//! return results over a `std::sync::mpsc` channel; no other state is
//! shared.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Map `f` over `inputs` in parallel (order-preserving output). Uses up to
/// `threads` workers (0 = available parallelism).
pub fn parallel_map<I, O, F>(inputs: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    parallel_map_progress(inputs, threads, f, |_, _| {})
}

/// [`parallel_map`] with a progress callback: `progress(done, total)` runs
/// on the coordinating thread after each result lands (so `done` is
/// monotone, ending at `total`). Long sweeps report liveness through it
/// without the workers sharing any state.
pub fn parallel_map_progress<I, O, F, P>(
    inputs: Vec<I>,
    threads: usize,
    f: F,
    mut progress: P,
) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
    P: FnMut(usize, usize),
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        threads
    }
    .min(n);

    let next = AtomicUsize::new(0);
    let (out_tx, out_rx) = mpsc::channel::<(usize, O)>();
    let (next, inputs_ref, f_ref) = (&next, &inputs, &f);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let out_tx = out_tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || out_tx.send((i, f_ref(&inputs_ref[i]))).is_err() {
                    return;
                }
            });
        }
        drop(out_tx);
        let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
        let mut done = 0;
        while let Ok((i, o)) = out_rx.recv() {
            slots[i] = Some(o);
            done += 1;
            progress(done, n);
        }
        slots.into_iter().map(|s| s.expect("worker delivered every slot")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), 4, |&x: &i32| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_path() {
        let out = parallel_map(vec![1, 2, 3], 1, |&x: &i32| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn auto_thread_count() {
        let out = parallel_map((0..16).collect(), 0, |&x: &i32| -x);
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn progress_is_monotone_and_complete() {
        let mut seen = Vec::new();
        let out = parallel_map_progress(
            (0..32).collect(),
            4,
            |&x: &i32| x,
            |done, total| {
                assert_eq!(total, 32);
                seen.push(done);
            },
        );
        assert_eq!(out, (0..32).collect::<Vec<_>>());
        assert_eq!(seen, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn progress_fires_on_single_thread_path() {
        let mut seen = Vec::new();
        parallel_map_progress(
            vec![5, 6],
            1,
            |&x: &i32| x,
            |done, total| {
                seen.push((done, total));
            },
        );
        assert_eq!(seen, vec![(1, 2), (2, 2)]);
    }

    #[test]
    fn actually_runs_concurrently_enough() {
        // All tasks get executed exactly once.
        let counter = AtomicUsize::new(0);
        let _ =
            parallel_map((0..64).collect(), 8, |_: &i32| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }
}
