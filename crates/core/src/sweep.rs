//! Parallel parameter-sweep helpers: [`parallel_map`], which lives in
//! `nds_stats::parallel` so that `nds-cluster`'s batch-means experiment
//! can fan out too, re-exported here under its old path. Its tests
//! stay here and reach it through this path.

pub use nds_stats::parallel::parallel_map;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback() {
        let items = vec![5u32];
        let out = parallel_map(&items, 8, |&x| x + 1);
        assert_eq!(out, vec![6]);
        let empty: Vec<u32> = vec![];
        let out: Vec<u32> = parallel_map(&empty, 8, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_count_larger_than_items() {
        let items = vec![1u32, 2, 3];
        let out = parallel_map(&items, 64, |&x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn expensive_closure_parallelizes_correctly() {
        // Results must match the sequential computation exactly.
        let items: Vec<u64> = (0..64).collect();
        let expected: Vec<u64> = items
            .iter()
            .map(|&x| (0..1000).fold(x, |a, b| a ^ b))
            .collect();
        let out = parallel_map(&items, 8, |&x| (0..1000).fold(x, |a, b| a ^ b));
        assert_eq!(out, expected);
    }
}
