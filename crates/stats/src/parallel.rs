//! The workspace's one fan-out helper.
//!
//! Figure generation evaluates the model at hundreds of parameter
//! points, the scheduler runs independent replications, and the
//! batch-means validation simulates independent batches; each item is
//! independent, so they fan out across scoped threads (no external
//! thread-pool dependency; results return in input order). The thread
//! count is capped by [`std::thread::available_parallelism`], which
//! honours the process's CPU affinity, so a process pinned to one core
//! maps on the calling thread. A started thread has a price beyond its
//! own: glibc's `malloc` leaves its single-threaded fast path for the
//! rest of the process, which slows later allocations of a few KiB or
//! more.

/// Map `f` over `items`, fanning out across up to `max_threads` scoped
/// threads. Results are returned in input order. Falls back to a
/// sequential map for tiny inputs.
pub fn parallel_map<T, R, F>(items: &[T], max_threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = max_threads
        .max(1)
        .min(items.len().max(1))
        .min(available_threads());
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(&f).collect();
    }
    // Chunk the input; each thread maps one chunk; splice in order.
    let chunk_size = items.len().div_ceil(threads);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let mut remaining: &mut [Option<R>] = &mut results;
        let mut handles = Vec::new();
        for chunk_index in 0..threads {
            let start = chunk_index * chunk_size;
            if start >= items.len() {
                break;
            }
            let len = chunk_size.min(items.len() - start);
            let (head, tail) = remaining.split_at_mut(len);
            remaining = tail;
            let slice = &items[start..start + len];
            let f = &f;
            handles.push(scope.spawn(move || {
                for (slot, item) in head.iter_mut().zip(slice) {
                    *slot = Some(f(item));
                }
            }));
        }
        for h in handles {
            h.join().expect("sweep worker panicked");
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}
