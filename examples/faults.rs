//! Machine failure injection: what crashes cost each eviction policy.
//!
//! Run with `cargo run --example faults` (optionally `-- --mtbf M`
//! to pick the crash rate; default 120).
//!
//! The paper's owner returns are benign — a suspend-resume guest
//! sleeps through the reclaim and loses nothing, which is why
//! suspend-resume wins every owner-only comparison. Crashes break that
//! logic: a power cycle destroys whatever progress the policy left
//! unprotected, *whatever* the policy. Three vignettes:
//!
//! 1. the same workload with and without a failure model — and the
//!    no-failures run is bit-identical to an engine that has never
//!    heard of failures (the failure process draws from its own RNG
//!    streams);
//! 2. the eviction-policy panel under crashes: suspend-resume and
//!    restart lose everything a crash touches, checkpointing bounds the
//!    loss to one interval, adaptive eviction protects only tasks with
//!    enough invested progress to be worth the overhead;
//! 3. availability vs goodput as MTBF degrades: the pool's uptime
//!    fraction is set by MTBF/(MTBF+MTTR) alone, but how much of that
//!    uptime survives as goodput is the policy's choice.

use nds::core::prelude::*;
use nds::core::sim::closed;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mtbf = args
        .iter()
        .position(|a| a == "--mtbf")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(120.0)
        .max(1.0);
    let mttr = 15.0;
    let w = 16u32;
    let owner = OwnerWorkload::continuous_exponential(10.0, 0.10).unwrap();
    let jobs: Vec<JobSpec> = JobSpec::stream(4, w, 120.0, 50.0);

    let run = |failures: Option<FailureModel>, eviction: EvictionPolicy| {
        let mut sim = Sim::pool(w)
            .owners(&owner)
            .eviction(eviction)
            .workload(closed(jobs.clone()))
            .seed(0xFA17)
            .replications(5);
        if let Some(model) = failures {
            sim = sim.failures(model);
        }
        let report = sim.run().unwrap();
        assert!(report.is_consistent());
        report
    };

    // 1. Failures on vs off, same seed: the crash price in isolation.
    let model = FailureModel::exponential(mtbf, mttr).unwrap();
    let clean = run(None, EvictionPolicy::SuspendResume);
    let faulty = run(Some(model), EvictionPolicy::SuspendResume);
    println!("1) suspend-resume, 4 jobs x {w} tasks x 120, U=10%");
    println!(
        "   no failures:  makespan {:7.1}, goodput fraction {:.3}",
        clean.mean_makespan(),
        clean.mean_goodput_fraction()
    );
    println!(
        "   {} (availability {:.3}):",
        model.label(),
        model.availability()
    );
    println!(
        "                 makespan {:7.1}, goodput fraction {:.3}, {:.0} crashes, {:.0} CPU destroyed",
        faulty.mean_makespan(),
        faulty.mean_goodput_fraction(),
        faulty.mean_over(|m| m.crashes as f64),
        faulty.mean_over(|m| m.crash_lost)
    );

    // 2. The policy panel under the same crash process.
    println!("\n2) eviction policies under {}", model.label());
    let policies = [
        EvictionPolicy::SuspendResume,
        EvictionPolicy::Restart,
        EvictionPolicy::Checkpoint {
            interval: 30.0,
            overhead: 1.0,
        },
        EvictionPolicy::Adaptive {
            threshold: 60.0,
            interval: 30.0,
            overhead: 1.0,
        },
    ];
    for policy in policies {
        let report = run(Some(model), policy);
        println!(
            "   {:<26} makespan {:7.1}, goodput fraction {:.3}, crash-destroyed {:6.0}, ckpt overhead {:5.0}",
            policy.label(),
            report.mean_makespan(),
            report.mean_goodput_fraction(),
            report.mean_over(|m| m.crash_lost),
            report.mean_over(|m| m.checkpoint_overhead)
        );
    }

    // 3. Availability vs goodput as the pool degrades.
    println!("\n3) checkpoint(i=30, c=1) as MTBF degrades (mttr {mttr})");
    let ckpt = EvictionPolicy::Checkpoint {
        interval: 30.0,
        overhead: 1.0,
    };
    for m in [6_000.0, 600.0, 120.0, 60.0] {
        let model = FailureModel::exponential(m, mttr).unwrap();
        let report = run(Some(model), ckpt);
        let observed = report.mean_over(|metrics| {
            if metrics.makespan == 0.0 {
                1.0
            } else {
                1.0 - metrics.downtime / (f64::from(w) * metrics.makespan)
            }
        });
        println!(
            "   MTBF {m:>6}: steady-state availability {:.4}, observed {:.4}, goodput/makespan {:5.2}",
            model.availability(),
            observed,
            report.mean_over(nds::sched::SchedMetrics::goodput_rate)
        );
    }
    println!(
        "\nAvailability is the failure process's number; goodput is the\n\
         policy's. Crashes price the protection that benign owner returns\n\
         never charged for."
    );
}
