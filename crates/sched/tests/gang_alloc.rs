//! Gang admission allocates nothing once the member lists have grown:
//! a gang run over twice the jobs performs only the few more heap
//! allocations its growing containers need, not a few per admission.
//!
//! The counting allocator is this test binary's own, and it counts per
//! thread, so the harness's other threads do not disturb the count.

use nds_cluster::owner::OwnerWorkload;
use nds_sched::{GangPolicy, JobSpec, SchedConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees on `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by one gang run over `jobs` jobs.
fn allocations(policy: GangPolicy, jobs: u32) -> u64 {
    let owner = OwnerWorkload::continuous_exponential(10.0, 0.2).expect("valid owner");
    let mut cfg = SchedConfig::homogeneous(16, &owner, JobSpec::stream(jobs, 4, 60.0, 20.0));
    cfg.gang = policy;
    let before = ALLOCATIONS.with(Cell::get);
    let (metrics, _) = cfg.run_counted().expect("the gang run completes");
    let used = ALLOCATIONS.with(Cell::get) - before;
    assert!(
        metrics.gang.gang_starts >= u64::from(jobs),
        "every gang started"
    );
    used
}

#[test]
fn gang_admissions_reuse_member_lists() {
    for policy in [
        GangPolicy::SuspendAll,
        GangPolicy::MigrateAll { overhead: 1.0 },
    ] {
        let (small, large) = (allocations(policy, 400), allocations(policy, 800));
        // Three fresh lists per admission would add at least 1,200.
        assert!(
            large - small < 100,
            "{policy:?}: 400 more gangs cost {} more allocations ({small} -> {large})",
            large - small
        );
    }
}
