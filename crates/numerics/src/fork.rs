//! The one fork-join every threaded kernel in this crate runs through.
//!
//! A kernel cuts its work into disjoint shares — row bands of an SpMV,
//! chunks of an element-wise update, contiguous column groups of an IC(0)
//! apply or a block-CG vector loop — and [`fork_join`] runs them: every
//! share but the last on a scoped worker, the last on the calling thread,
//! and then it joins every worker before it returns. Each share computes
//! its entries exactly as the serial loop does, so the result is bitwise
//! the same at every worker count.
//!
//! The join is explicit because `std::thread::scope` only waits for the
//! workers' closures: a worker whose handle is dropped is detached and
//! tears down its thread-local state, glibc's per-thread cache of freed
//! small blocks included, after the scope has returned, racing the
//! caller's next allocations. A joined worker has exited before the
//! kernel returns.

use std::ops::Range;
use std::thread::ScopedJoinHandle;

use crate::sparse::hardware_threads;
use crate::CsrMatrix;

/// Work, in rows × columns, below which [`fork_join`] runs a kernel on
/// the calling thread: below it, spawning and joining a worker costs more
/// than the share it takes over.
///
/// Set from a crossover sweep of two workers against one on a two-vCPU
/// Xeon: 7-point stencils of 32 × 32 × nz rows, the median of three
/// sweeps of at least 51 calls each. An empty fork-join costs 21 µs. Two
/// workers first beat one at (time at two workers / time at one, at the
/// sizes either side):
///
/// | kernel                         | crossover | below        | above        |
/// |--------------------------------|-----------|--------------|--------------|
/// | SpMV, 1 column                 | ~10 k     | 8 192: 1.09  | 12 288: 0.88 |
/// | IC(0) apply, 5 columns         | ~15 k     | 10 240: 1.27 | 20 480: 0.75 |
/// | SpMV, 5 columns                | ~25 k     | 20 480: 1.08 | 30 720: 0.86 |
/// | CG step, 5 columns             | ~27 k     | 20 480: 1.15 | 30 720: 0.90 |
/// | CG direction update, 5 columns | ~50 k     | 40 960: 1.14 | 61 440: 0.88 |
/// | Chebyshev update, 1 column     | ~55 k     | 49 152: 1.12 | 65 536: 0.70 |
///
/// 2¹⁵ sits in the middle of the crossovers: no measured kernel loses
/// more than 35 µs a call to the gate on either side of it (the worst is
/// a one-column SpMV of 24 576 rows, 116 µs serial against 81 µs on two
/// workers). Far above it two workers take 0.52–0.62 of the one-worker
/// time.
pub(crate) const PARALLEL_WORK_THRESHOLD: usize = 1 << 15;

/// Runs `run` on every share `split` cuts and returns the results in share
/// order.
///
/// `work` is the kernel's size in rows × columns and `parts` the most
/// shares it divides into (rows for a band split, columns for a column
/// split). The worker count is `threads` when given (tests pin it),
/// otherwise 1 below [`PARALLEL_WORK_THRESHOLD`] and
/// [`hardware_threads`] above it, in every case capped at `parts` and at
/// [`CsrMatrix::MAX_SPMV_THREADS`], the length of the fixed array the
/// join handles live in (a fork allocates nothing of its own).
/// `split(share, shares)` is called for `share` = 0, 1, … in order, so it
/// can cut each share off the front of the kernel's buffers. One worker
/// runs `run(split(0, 1))` in place; otherwise every share but the last
/// runs on its own scoped worker, the last on the calling thread, and
/// every worker is joined before this returns.
///
/// # Panics
///
/// Re-raises a worker's panic on the calling thread.
pub(crate) fn fork_join<S: Send, R: Send>(
    work: usize,
    parts: usize,
    threads: Option<usize>,
    mut split: impl FnMut(usize, usize) -> S,
    run: impl Fn(S) -> R + Sync,
) -> [Option<R>; CsrMatrix::MAX_SPMV_THREADS] {
    let wanted = match threads {
        Some(t) => t,
        None if work < PARALLEL_WORK_THRESHOLD => 1,
        None => hardware_threads(),
    };
    let workers = wanted.min(parts).clamp(1, CsrMatrix::MAX_SPMV_THREADS);
    let mut results: [Option<R>; CsrMatrix::MAX_SPMV_THREADS] = Default::default();
    if workers == 1 {
        results[0] = Some(run(split(0, 1)));
        return results;
    }
    let run = &run;
    std::thread::scope(|scope| {
        let mut handles: [Option<ScopedJoinHandle<'_, R>>; CsrMatrix::MAX_SPMV_THREADS] =
            Default::default();
        for (share, handle) in handles.iter_mut().enumerate().take(workers - 1) {
            let piece = split(share, workers);
            *handle = Some(scope.spawn(move || run(piece)));
        }
        results[workers - 1] = Some(run(split(workers - 1, workers)));
        for (result, handle) in results.iter_mut().zip(handles) {
            if let Some(handle) = handle {
                match handle.join() {
                    Ok(value) => *result = Some(value),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        }
    });
    results
}

/// The index range share `share` of `shares` takes of `len` items: equal
/// splits to within one item, in order.
pub(crate) fn share_range(share: usize, shares: usize, len: usize) -> Range<usize> {
    share * len / shares..(share + 1) * len / shares
}

/// Cuts the first `len` entries off `rest`, leaving the remainder in it.
///
/// # Panics
///
/// Panics if `rest` is shorter than `len`.
pub(crate) fn take_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_join_runs_every_share_once_and_returns_results_in_order() {
        for threads in 1..=CsrMatrix::MAX_SPMV_THREADS + 2 {
            let mut data = vec![0usize; 37];
            let mut rest: &mut [usize] = &mut data;
            let results = fork_join(
                0,
                37,
                Some(threads),
                |share, shares| {
                    (share, take_front(&mut rest, share_range(share, shares, 37).len()))
                },
                |(share, chunk): (usize, &mut [usize])| {
                    for v in chunk.iter_mut() {
                        *v += share + 1;
                    }
                    chunk.len()
                },
            );
            let workers = threads.min(CsrMatrix::MAX_SPMV_THREADS);
            let lens: Vec<usize> = results.iter().flatten().copied().collect();
            assert_eq!(lens.len(), workers, "{threads} threads");
            assert_eq!(lens.iter().sum::<usize>(), 37);
            let mut start = 0;
            for (share, len) in lens.iter().enumerate() {
                assert!(data[start..start + len].iter().all(|&v| v == share + 1));
                start += len;
            }
        }
    }

    #[test]
    fn workers_are_capped_by_parts() {
        let results = fork_join(usize::MAX, 2, Some(6), |share, _| share, |share| share);
        assert_eq!(results[..3], [Some(0), Some(1), None]);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            fork_join(0, 2, Some(2), |share, _| share, |share| assert_ne!(share, 0, "boom"));
        });
        assert!(caught.is_err());
    }
}
