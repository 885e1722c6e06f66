//! Sharding a run of independent work items over scoped worker
//! threads: the one loop the fleet sweep (one item per chip) and the
//! batch executor (one item per job) share.
//!
//! The items are cut into contiguous chunks in submission order, one
//! worker thread per chunk, and the results are reassembled in
//! submission order, so the output never depends on the shard count.

use std::ops::Range;

/// The shard count used for `items` work items: `requested`, or one
/// per available CPU when it is 0, never more than `items` and never
/// less than 1.
fn effective_shards(requested: usize, items: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    requested.min(items).max(1)
}

/// The worker threads [`sharded_map`] spawns for `items` work items
/// at `requested` shards (0 asks for one per available CPU). The
/// shard count is clamped to `1..=items`, and ceil-division chunking
/// can need fewer workers than shards (5 items over 4 shards are 3
/// chunks of 2).
pub fn effective_workers(requested: usize, items: usize) -> usize {
    let shards = effective_shards(requested, items);
    if shards <= 1 || items == 0 {
        1
    } else {
        items.div_ceil(items.div_ceil(shards))
    }
}

/// Runs `run` over contiguous index ranges covering `0..items`, one
/// range per worker thread ([`effective_workers`] of them; on the
/// calling thread when that is 1), and returns the results in
/// submission order. `run` returns one result per index of its range.
///
/// # Panics
///
/// Re-raises a worker's panic on the calling thread.
pub fn sharded_map<R: Send>(
    items: usize,
    requested: usize,
    run: impl Fn(Range<usize>) -> Vec<R> + Sync,
) -> Vec<R> {
    if effective_workers(requested, items) <= 1 {
        return run(0..items);
    }
    let chunk = items.div_ceil(effective_shards(requested, items));
    let run = &run;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..items)
            .step_by(chunk)
            .map(|start| s.spawn(move || run(start..(start + chunk).min(items))))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_counts_clamp() {
        assert_eq!(effective_shards(8, 3), 3);
        assert_eq!(effective_shards(2, 64), 2);
        assert!(effective_shards(0, 64) >= 1);
        assert_eq!(effective_shards(5, 0), 1);
        assert_eq!(effective_workers(4, 5), 3, "5 items / 4 shards → 3 chunks");
        assert_eq!(effective_workers(3, 0), 1);
    }

    #[test]
    fn results_come_back_in_submission_order_at_every_shard_count() {
        let want: Vec<usize> = (0..23).map(|i| i * i).collect();
        for shards in 0..30 {
            let threads = std::sync::Mutex::new(std::collections::HashSet::new());
            let got = sharded_map(want.len(), shards, |range| {
                threads.lock().unwrap().insert(std::thread::current().id());
                range.map(|i| i * i).collect()
            });
            assert_eq!(got, want, "shards {shards}");
            assert_eq!(
                threads.into_inner().unwrap().len(),
                effective_workers(shards, want.len()),
                "shards {shards}"
            );
        }
        assert!(sharded_map(0, 4, |range| range.collect::<Vec<_>>()).is_empty());
    }
}
