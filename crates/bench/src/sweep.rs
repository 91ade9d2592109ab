//! Multi-core sweep orchestration: a small worker pool that fans
//! independent work items (DST seeds, experiment suites) across OS
//! threads while keeping every observable output **byte-identical** to a
//! sequential run.
//!
//! ## Determinism argument
//!
//! Each work item is a self-contained simulation: a `Sim` owns its RNG,
//! metric, trace and network tables, so two items running on different
//! threads share no simulation state. The only process-wide mutable in
//! the workspace is the write-once instrumentation name table
//! (`aurora_sim::Name`), whose ids depend on which thread resolved a name
//! first and therefore never reach an output or a decision.
//! Items are therefore pure functions of their input, and the pool's job
//! is purely *scheduling*: it may compute items in any real-time order,
//! but it hands results to the caller strictly in item order via
//! [`parallel_map`]'s ordered-emit protocol. A run with `jobs = 64`
//! produces the same bytes, in the same order, as `jobs = 1` — only the
//! wall clock differs.
//!
//! Work that is *not* independent stays off the pool by construction:
//! ddmin shrink mutates a per-seed schedule iteratively, and traced
//! re-runs name their artifact files from a global sequence, so the
//! callers run those sequentially per seed after the sweep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Default worker count: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` using up to `jobs` worker threads, returning the
/// results in item order.
///
/// `emit` is called on the caller's thread, exactly once per item, in
/// **item order** (not completion order) — use it to stream per-item
/// output. Results are buffered only as long as an earlier item is still
/// in flight, so progress appears live while staying deterministic.
///
/// With `jobs <= 1` (or a single item) everything runs inline on the
/// caller's thread through the same emit path: the sequential and
/// parallel code paths cannot drift apart.
pub fn parallel_map<T, R, F, E>(items: &[T], jobs: usize, f: F, mut emit: E) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    E: FnMut(usize, &R),
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let r = f(item);
                emit(i, &r);
                r
            })
            .collect();
    }

    let jobs = jobs.min(n);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if tx.send((i, f(&items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx); // the receive loop ends when every worker is done

        let mut emitted = 0usize;
        for (i, r) in rx {
            slots[i] = Some(r);
            // Emit the contiguous completed prefix, in item order.
            while emitted < n {
                match slots[emitted].as_ref() {
                    Some(r) => {
                        emit(emitted, r);
                        emitted += 1;
                    }
                    None => break,
                }
            }
        }
        // A worker panic propagates out of the scope after joins; the
        // channel just drains early in that case.
    });

    slots
        .into_iter()
        .map(|s| s.expect("every item completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_and_emits_are_in_item_order() {
        let items: Vec<u64> = (0..64).collect();
        for jobs in [1, 2, 4, 8] {
            let mut emitted = Vec::new();
            let out = parallel_map(
                &items,
                jobs,
                |&x| {
                    // Uneven work so completion order differs from item order.
                    let spin = (x % 7) * 1000;
                    let mut acc = 0u64;
                    for i in 0..spin {
                        acc = acc.wrapping_add(i);
                    }
                    std::hint::black_box(acc);
                    x * 10
                },
                |i, &r| emitted.push((i, r)),
            );
            let want: Vec<u64> = items.iter().map(|x| x * 10).collect();
            assert_eq!(out, want, "jobs={jobs}");
            let want_emits: Vec<(usize, u64)> = want.iter().copied().enumerate().collect();
            assert_eq!(emitted, want_emits, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_item() {
        let none: Vec<u32> = Vec::new();
        let out = parallel_map(&none, 8, |&x| x, |_, _| panic!("no emits"));
        assert!(out.is_empty());

        let one = [41u32];
        let mut emits = 0;
        let out = parallel_map(
            &one,
            8,
            |&x| x + 1,
            |i, &r| {
                assert_eq!((i, r), (0, 42));
                emits += 1;
            },
        );
        assert_eq!(out, vec![42]);
        assert_eq!(emits, 1);
    }
}
