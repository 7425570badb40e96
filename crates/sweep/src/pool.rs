//! A deterministic fork-join worker pool.
//!
//! Jobs are indexed; workers pull the next index from an atomic counter
//! and send `(index, result)` back over a channel; the caller slots each
//! result by index. The *completion* order therefore never influences the
//! *output* order — [`par_map_progress`] over N workers returns exactly
//! what a sequential map would, which is what makes sweep aggregates
//! byte-identical for any `--jobs` value.
//!
//! Each job runs wholly inside one OS thread, so `!Send` simulation
//! internals (`Rc`/`RefCell`) are fine as long as the job *function*
//! and its inputs/outputs cross threads, not the simulation itself.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Parallel map with deterministic output order. `jobs` is clamped to
/// `[1, items.len()]`; `jobs == 1` still runs on one worker thread so the
/// execution environment matches the parallel case exactly.
/// `on_done(job_index, done_so_far)` runs on the calling thread each time
/// a job finishes (in completion order — use it for progress lines, never
/// for results).
pub fn par_map_progress<T, R, F, P>(items: &[T], jobs: usize, f: F, mut on_done: P) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    P: FnMut(usize, usize),
{
    if items.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, items.len());
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut done = 0usize;
        while let Ok((i, r)) = rx.recv() {
            slots[i] = Some(r);
            done += 1;
            on_done(i, done);
        }
        // If a worker panicked, the scope re-raises the panic on exit —
        // before the expect() below can ever report a missing slot.
    });
    slots
        .into_iter()
        .map(|r| r.expect("every job delivered a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_matches_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..57).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 4, 16, 200] {
            let got = par_map_progress(&items, jobs, |_, &x| x * x, |_, _| {});
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn progress_sees_every_job_exactly_once() {
        let items: Vec<u64> = (0..23).collect();
        let mut seen = vec![false; items.len()];
        let mut last_done = 0;
        par_map_progress(
            &items,
            4,
            |_, &x| x,
            |idx, done| {
                assert!(!seen[idx]);
                seen[idx] = true;
                assert_eq!(done, last_done + 1);
                last_done = done;
            },
        );
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u64> = par_map_progress(&[] as &[u64], 8, |_, &x| x, |_, _| {});
        assert!(out.is_empty());
    }
}
