//! Runs independent trials side by side.
//!
//! Every experiment driver is a sweep of whole, independent trials
//! (one per set size, backend, policy or fault variant). Each trial is
//! one deterministic single-threaded simulation, so running several at
//! once on worker threads changes only the wall clock: the results come
//! back in input order and are byte-identical at every worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` over `items` on `workers` threads, returning results in
/// **input order** regardless of which thread finished first. Threads
/// claim indices from an atomic counter, so work distribution adapts to
/// uneven item costs.
pub fn ordered_parallel<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        // Run inline: no threads, no overhead.
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let item = slots[i].lock().expect("slot lock").take().expect("item");
                let r = f(i, item);
                *results[i].lock().expect("result lock") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result lock").expect("result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_parallel_preserves_input_order() {
        // Uneven spins so late items often finish first on 4 threads.
        let items: Vec<u64> = (0..32).collect();
        let out = ordered_parallel(items, 4, |i, x| {
            let mut acc = 0u64;
            for k in 0..((32 - i as u64) * 1000) {
                acc = acc.wrapping_add(k);
            }
            (x, std::hint::black_box(acc))
        });
        let xs: Vec<u64> = out.iter().map(|(x, _)| *x).collect();
        assert_eq!(xs, (0..32).collect::<Vec<u64>>());
    }
}
