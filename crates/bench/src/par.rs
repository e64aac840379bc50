//! A bounded worker pool for fanning independent experiment
//! configurations out over OS threads.
//!
//! [`par_map`] preserves input order in its output regardless of which
//! worker finishes first, so experiment output stays deterministic. The
//! pool is built on `std::thread::scope` — no external dependencies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves the number of worker threads to use: an explicit `requested`
/// count, else [`tilefuse_codegen::default_threads`] (`TILEFUSE_JOBS`,
/// then the machine's available parallelism).
pub fn effective_jobs(requested: Option<usize>) -> usize {
    requested.map_or_else(tilefuse_codegen::default_threads, |n| n.max(1))
}

/// Applies `f` to every item on a pool of at most `jobs` threads,
/// returning results in input order.
pub fn par_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs == 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each index is claimed exactly once");
                let r = f(item);
                *out[i].lock().unwrap() = Some(r);
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker stored a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(items.clone(), 8, |x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_single_job_is_sequential() {
        let out = par_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn par_map_empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn effective_jobs_explicit_wins() {
        assert_eq!(effective_jobs(Some(7)), 7);
        assert_eq!(effective_jobs(Some(0)), 1);
        assert!(effective_jobs(None) >= 1);
    }
}
