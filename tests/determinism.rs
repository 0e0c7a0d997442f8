//! Two-run identity regression for the ordered-container migration.
//!
//! PR 7 converted the sim-visible `HashMap`/`HashSet` state in the PVM
//! layer (`task_host`, `mailboxes`, daemon task tables) to
//! `BTreeMap`/`BTreeSet`, and moved every float comparison on the
//! event path to `total_cmp`. These tests pin the
//! guarantee that migration was made for: running the same configured
//! experiment twice produces *identical* results, down to the last bit
//! of every observable field. PR 10 extends the same guarantee to
//! failure injection: crash/repair processes replay bit-for-bit and
//! survive replication sharding.

use nds::cluster::owner::OwnerWorkload;
use nds::cluster::smp::SmpWorkstation;
use nds::core::sim::{closed, Sim, SimBuilder};
use nds::des::{Calendar, SimTime};
use nds::pvm::lan::LanModel;
use nds::pvm::message::{Message, MessageBuffer};
use nds::pvm::vm::{InterferenceMode, VirtualMachine};
use nds::sched::{EvictionPolicy, FailureModel, JobSpec};

/// One scatter/compute/gather experiment over the PVM layer, returning
/// a full transcript of everything observable: delivery times, receive
/// times, unpacked payloads, task outcomes, mailbox depths.
fn pvm_transcript(seed: u64) -> Vec<(String, f64)> {
    let owner = OwnerWorkload::continuous_exponential(10.0, 0.15).expect("valid owner");
    let mut vm = VirtualMachine::new(
        4,
        InterferenceMode::Continuous(owner),
        LanModel::new(0.5, 1_000.0),
        seed,
    )
    .expect("valid VM");
    let mut log = Vec::new();

    // Master on host 0, workers round-robin on all hosts.
    let master = vm.spawn(0).expect("spawn master");
    let workers = vm.spawn_round_robin(8).expect("spawn workers");

    // Scatter: one work item per worker.
    let mut clock = 0.0;
    for (i, &w) in workers.iter().enumerate() {
        let mut body = MessageBuffer::new();
        body.pack_f64(50.0 + 10.0 * i as f64).pack_u64(i as u64);
        let delivery = vm
            .send(
                Message {
                    src: master,
                    dst: w,
                    tag: 1,
                    body,
                },
                clock,
            )
            .expect("scatter send");
        log.push((format!("scatter[{i}].delivery"), delivery));
        clock += 0.1;
    }

    // Each worker receives, computes under interference, replies.
    for (i, &w) in workers.iter().enumerate() {
        let (at, mut msg) = vm.recv(w, Some(1), 0.0).expect("worker recv");
        let demand = msg.body.unpack_f64().expect("demand");
        let idx = msg.body.unpack_u64().expect("index");
        log.push((format!("worker[{i}].recv_at"), at));
        log.push((format!("worker[{i}].idx"), idx as f64));
        let out = vm.compute(w, demand, at, 3).expect("compute");
        log.push((format!("worker[{i}].exec"), out.execution_time));
        log.push((format!("worker[{i}].susp"), out.suspended_time));
        log.push((format!("worker[{i}].intr"), out.interruptions as f64));
        let mut body = MessageBuffer::new();
        body.pack_f64(out.execution_time);
        let delivery = vm
            .send(
                Message {
                    src: w,
                    dst: master,
                    tag: 2,
                    body,
                },
                at + out.execution_time,
            )
            .expect("gather send");
        log.push((format!("gather[{i}].delivery"), delivery));
    }

    // Gather: master drains its mailbox in delivery order.
    log.push(("master.pending".into(), vm.pending_messages(master) as f64));
    for i in 0..workers.len() {
        let (at, mut msg) = vm.recv(master, Some(2), 0.0).expect("master recv");
        log.push((format!("gather[{i}].recv_at"), at));
        log.push((
            format!("gather[{i}].exec"),
            msg.body.unpack_f64().expect("exec time"),
        ));
    }
    for &w in &workers {
        vm.exit(w).expect("worker exit");
    }
    vm.exit(master).expect("master exit");
    log
}

#[test]
fn pvm_two_runs_identical() {
    let a = pvm_transcript(0xD15C);
    let b = pvm_transcript(0xD15C);
    assert_eq!(a, b, "same seed must replay bit-for-bit");
    let c = pvm_transcript(0xD15C + 1);
    assert_ne!(a, c, "a different seed must change the sample path");
}

/// The SMP facility tracks live owner requests in a `req_owner` map;
/// multiple owner streams on fewer CPUs exercise its insert/remove
/// churn and the engine's cancel path (`alive`/`cancelled` sets).
#[test]
fn smp_multi_owner_two_runs_identical() {
    let owners: Vec<OwnerWorkload> = (1..=5)
        .map(|i| {
            OwnerWorkload::continuous_exponential(8.0 + i as f64, 0.05 * i as f64)
                .expect("valid owner")
        })
        .collect();
    let ws = SmpWorkstation::with_owners(2, owners);
    let run = |seed: u64| {
        let mut rng = nds::stats::rng::Xoshiro256StarStar::new(seed);
        (0..10)
            .map(|_| ws.run_task(120.0, &mut rng))
            .collect::<Vec<_>>()
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a, b, "same seed must replay bit-for-bit");
    assert!(a.iter().any(|o| o.interruptions > 0), "runs must contend");
}

/// A failure-armed pool simulation, parameterized only by shard count.
/// Crash/repair processes draw from their own labeled RNG streams, so
/// determinism here pins both the failure sample paths and their
/// interleaving with owner reclaims and job events.
fn faulty_sim(shards: usize) -> SimBuilder {
    let owner = OwnerWorkload::continuous_exponential(10.0, 0.12).expect("valid owner");
    Sim::pool(6)
        .owners(&owner)
        .eviction(EvictionPolicy::Adaptive {
            threshold: 40.0,
            interval: 25.0,
            overhead: 1.0,
        })
        .failures(FailureModel::exponential(90.0, 12.0).expect("valid lifetimes"))
        .workload(closed(JobSpec::stream(3, 6, 100.0, 40.0)))
        .seed(0xFA11)
        .replications(4)
        .shards(shards)
}

/// Failure injection must not cost replay identity: two runs of the
/// same failure-armed configuration agree on the full `Report` — every
/// crash count, downtime integral, and per-machine tally bit-for-bit —
/// and sharding the replications changes nothing.
#[test]
fn failure_runs_two_runs_identical() {
    let a = faulty_sim(1).run().expect("faulty run completes");
    let b = faulty_sim(1).run().expect("faulty run completes");
    assert_eq!(a, b, "same seed must replay bit-for-bit under failures");
    assert!(
        a.runs.iter().all(|m| m.crashes > 0),
        "every replication must actually crash: {:?}",
        a.runs.iter().map(|m| m.crashes).collect::<Vec<_>>()
    );
    assert!(a.runs.iter().all(|m| m.downtime > 0.0));
    let sharded = faulty_sim(4).run().expect("sharded faulty run completes");
    assert_eq!(a, sharded, "shards(4) must equal shards(1) under failures");
    let c = faulty_sim(1)
        .seed(0xFA12)
        .run()
        .expect("reseeded run completes");
    assert_ne!(a, c, "a different seed must change the sample path");
}

/// Heavy schedule/cancel churn through the calendar: generation-counted
/// cancellation must not affect replay identity.
#[test]
fn engine_cancellation_churn_identical() {
    let run = || {
        let mut cal = Calendar::new();
        let handles: Vec<_> = (0..200u64)
            .map(|i| {
                let t = SimTime::new(((i * 7919) % 101) as f64);
                cal.schedule(t, i).expect("schedule")
            })
            .collect();
        // Cancel every third event, then again (a stale handle is a no-op).
        for (i, &h) in handles.iter().enumerate() {
            if i % 3 == 0 {
                assert!(cal.cancel(h));
                assert!(!cal.cancel(h));
            }
        }
        std::iter::from_fn(|| cal.pop())
            .map(|(t, i)| (t.as_f64(), i))
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert_eq!(a.len(), 200 - 67, "exactly the cancelled events skipped");
}
