//! The workspace's one batch worker pool, with per-task panic isolation.
//!
//! Every fan-out in the stack — the experiment engine's `(point, seed)`
//! grid, the sharded simulator's interference components, the lint
//! engine's per-file pass — has the same shape: a list of independent
//! inputs, a fixed worker cap, and results wanted back in input order.
//! [`run_tasks`] is that shape, on `std::thread::scope` alone.
//!
//! Load balance: the inputs sit behind one shared claim cursor (a
//! mutex-guarded iterator); each worker repeatedly claims the next
//! unclaimed input until the queue drains, so a slow task never holds
//! up a barrier and every worker stays busy until the last claim.
//!
//! Determinism: workers push `(index, result)` pairs into a shared
//! collection and the results are re-assembled in index order, so the
//! output vector is identical to a serial run regardless of worker count
//! or interleaving.
//!
//! Panic isolation: each task runs under `catch_unwind`; a panicking
//! task becomes `Err(message)` in its slot — a failed cell, not a
//! harness abort — and every other task still completes. Results are
//! published to the shared collection *as each task finishes* (not in a
//! per-worker batch at thread exit), so a worker thread dying abnormally
//! can only lose the single task it was running, and that slot is filled
//! with an explicit error naming the task and the captured panic payload
//! rather than a generic "lost" marker.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Runs `task` once per input across `workers` threads, returning one
/// result per input in input order. `workers` is clamped to
/// `[1, inputs.len()]`; with one worker the tasks run serially on the
/// caller's thread (same failure semantics, no thread spawn).
///
/// Callers that index into shared state pass the indices themselves as
/// the inputs; callers that hand each task an owned value pass those.
pub fn run_tasks<I, T, F>(inputs: Vec<I>, workers: usize, task: F) -> Vec<Result<T, String>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let count = inputs.len();
    let workers = workers.max(1).min(count.max(1));
    if workers <= 1 {
        return inputs
            .into_iter()
            .map(|input| run_one(&task, input))
            .collect();
    }

    let queue = Mutex::new(inputs.into_iter().enumerate());
    let collected: Mutex<Vec<(usize, Result<T, String>)>> = Mutex::new(Vec::with_capacity(count));
    let harness_errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    // The claim's guard drops at the end of this statement,
                    // before the task runs.
                    let Some((i, input)) = lock_ignoring_poison(&queue).next() else {
                        break;
                    };
                    let result = run_one(&task, input);
                    // Publish immediately: a completed task survives even
                    // if this worker thread later dies abnormally.
                    lock_ignoring_poison(&collected).push((i, result));
                })
            })
            .collect();
        // Task panics are caught inside run_one, so a join failure means
        // the worker thread itself died (e.g. a panic in the
        // result-publishing path). Every handle is joined here, so the
        // scope has no panic left to re-raise; the payloads become the
        // diagnosis carried by any slot the dead thread lost.
        handles
            .into_iter()
            .filter_map(|handle| handle.join().err())
            .map(|payload| panic_message(payload.as_ref()))
            .collect()
    });

    let collected = collected
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    assemble(count, collected.into_iter(), &harness_errors)
}

/// Locks `mutex`, recovering the guard from a poisoned lock: a worker
/// that panicked while holding it has already been recorded via its
/// join handle, and the data inside (the remaining queue, completed
/// task results) is still valid and must not be discarded.
fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Re-assembles out-of-order `(index, result)` pairs into task order,
/// filling any slot no worker reported with an explicit error that
/// names the task and includes whatever the harness captured about the
/// failure. Factored out of [`run_tasks`] so the lost-slot path is unit
/// testable without actually killing a worker thread.
fn assemble<T>(
    count: usize,
    collected: impl Iterator<Item = (usize, Result<T, String>)>,
    harness_errors: &[String],
) -> Vec<Result<T, String>> {
    let mut out: Vec<Option<Result<T, String>>> = (0..count).map(|_| None).collect();
    for (i, r) in collected {
        if let Some(slot) = out.get_mut(i) {
            *slot = Some(r);
        }
    }
    let context = if harness_errors.is_empty() {
        String::new()
    } else {
        format!(" ({})", harness_errors.join("; "))
    };
    out.into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                Err(format!(
                    "task {i} lost: worker thread died before reporting it{context}"
                ))
            })
        })
        .collect()
}

/// Runs one task under `catch_unwind`, converting a panic payload into
/// an error message.
fn run_one<I, T, F>(task: &F, input: I) -> Result<T, String>
where
    F: Fn(I) -> T + Sync,
{
    catch_unwind(AssertUnwindSafe(|| task(input)))
        .map_err(|payload| panic_message(payload.as_ref()))
}

/// Extracts the human-readable message from a panic payload.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        for workers in [1, 2, 4, 8] {
            let out = run_tasks((0..20).collect(), workers, |i| i * 10);
            let values: Vec<usize> = out.into_iter().map(|r| r.expect("task ok")).collect();
            assert_eq!(values, (0..20).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn owned_inputs_move_into_their_tasks() {
        for workers in [1, 2, 4, 8] {
            let inputs: Vec<String> = (0..20).map(|i| format!("cell-{i}")).collect();
            let out = run_tasks(inputs, workers, |s| s + "!");
            let values: Vec<String> = out.into_iter().map(|r| r.expect("task ok")).collect();
            assert_eq!(
                values,
                (0..20).map(|i| format!("cell-{i}!")).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn a_panicking_task_is_a_failed_cell_not_an_abort() {
        let out = run_tasks((0..5).collect(), 3, |i| {
            assert!(i != 2, "cell 2 exploded");
            i
        });
        for (i, r) in out.iter().enumerate() {
            if i == 2 {
                let msg = r.as_ref().expect_err("cell 2 failed");
                assert!(msg.contains("cell 2 exploded"), "got: {msg}");
            } else {
                assert_eq!(*r.as_ref().expect("other cells ok"), i);
            }
        }
    }

    #[test]
    fn many_panicking_tasks_all_get_explicit_slots() {
        // Regression for the silent-loss path: with frequent panics and
        // real concurrency, every slot must still come back filled with
        // either its value or the task's own panic message — never the
        // generic "lost" marker.
        let out = run_tasks((0..50).collect(), 4, |i| {
            assert!(i % 3 != 0, "task {i} exploded");
            i
        });
        assert_eq!(out.len(), 50);
        for (i, r) in out.iter().enumerate() {
            if i % 3 == 0 {
                let msg = r.as_ref().expect_err("multiple-of-3 tasks fail");
                assert!(msg.contains(&format!("task {i} exploded")), "got: {msg}");
                assert!(
                    !msg.contains("lost"),
                    "slot {i} was lost, not failed: {msg}"
                );
            } else {
                assert_eq!(*r.as_ref().expect("other tasks ok"), i);
            }
        }
    }

    #[test]
    fn lost_slots_carry_task_index_and_harness_diagnosis() {
        // Simulates a worker dying after finishing tasks 0 and 2 but
        // before reporting task 1: the missing slot must say which task
        // vanished and why, instead of a generic marker.
        let collected = vec![(0usize, Ok(10u32)), (2, Ok(30))];
        let errors = vec!["worker panicked: allocator meltdown".to_owned()];
        let out = assemble(3, collected.into_iter(), &errors);
        assert_eq!(out[0], Ok(10));
        assert_eq!(out[2], Ok(30));
        let msg = out[1].as_ref().expect_err("slot 1 lost");
        assert!(msg.contains("task 1 lost"), "got: {msg}");
        assert!(msg.contains("allocator meltdown"), "got: {msg}");
    }

    #[test]
    fn zero_tasks_is_fine() {
        let out: Vec<Result<u32, String>> = run_tasks(Vec::<usize>::new(), 4, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let out = run_tasks((0..2).collect(), 16, |i: usize| i + 1);
        assert_eq!(out.len(), 2);
        assert!(out.into_iter().all(|r| r.is_ok()));
    }
}
