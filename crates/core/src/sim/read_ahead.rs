//! Read-ahead for the synthetic day: a [`JobFeed`] that draws its inner
//! feed on one worker thread, one fixed-size batch ahead of the engine.
//!
//! The synthetic sampler is a pure function of `(seed, replication)`,
//! so drawing it on another thread changes no draw; what leaves the
//! event loop's critical path is the sampling itself (thinning plus a
//! bounded-Pareto draw per job). The event loop stays on its thread.
//!
//! * Building a [`ReadAhead`] spawns nothing and never polls the inner
//!   feed. The first [`JobFeed::next_chunk`] draws the first batch on
//!   the caller's thread and moves the inner feed onto the worker only
//!   if that batch filled. A day shorter than one batch never starts a
//!   thread, where a worker would overlap nothing; a longer one runs
//!   on two threads past its first batch.
//! * The worker fills recycled buffers of [`BATCH`] specs and hands
//!   each over a rendezvous channel, so it is at most one batch ahead
//!   of the reader whatever the reader's chunk size.
//! * `next_chunk(max, buf)` appends exactly `min(max, remaining)` specs
//!   in submission order: the chunks the inner feed returns when it
//!   fills every request, as the synthetic sampler does. An inner-feed
//!   error arrives after every job drawn before it, and a failed feed
//!   keeps returning that error.
//! * A panic while drawing the first batch unwinds the caller as it
//!   happens. A worker panic is re-raised in the reader by the pull
//!   that finds it, never read as the end of the day. Dropping a live
//!   feed closes the channel and joins the worker; a panic that only
//!   the drop sees is not re-raised (`Drop` must not panic), and the
//!   panic hook has printed it already.

use nds_sched::feed::JobFeed;
use nds_sched::{JobSpec, SchedError};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread::{self, JoinHandle};
use std::{mem, panic};

/// Specs per batch: 8,192 × 24 bytes = 192 KiB, so a chunk-1 reader
/// pays one handoff per 8,192 jobs.
pub(crate) const BATCH: usize = 8_192;

/// One handoff from the worker.
enum Msg {
    /// The next specs in submission order; full unless the day ended or
    /// the inner feed failed right after them.
    Batch(Vec<JobSpec>),
    /// The inner feed is exhausted.
    End,
    /// The inner feed failed.
    Failed(SchedError),
}

/// A [`JobFeed`] that draws `F` one batch ahead on a worker thread.
pub(crate) struct ReadAhead<F> {
    stage: Stage<F>,
    /// The batch being served; `batch[pos..]` is still to go.
    batch: Vec<JobSpec>,
    pos: usize,
}

enum Stage<F> {
    /// Built, never pulled: no thread, the inner feed untouched.
    Idle(F),
    /// The worker draws ahead.
    Live(Worker),
    /// The day ended (`None`) or the inner feed failed, and no worker
    /// runs.
    Over(Option<SchedError>),
}

/// The reader's end of a live worker.
struct Worker {
    batches: Receiver<Msg>,
    /// Served batches go back to the worker for reuse.
    spent: Sender<Vec<JobSpec>>,
    handle: JoinHandle<()>,
}

impl<F: JobFeed + Send + 'static> ReadAhead<F> {
    /// Wrap `feed`; nothing is drawn before the first pull.
    pub(crate) fn new(feed: F) -> Self {
        Self {
            stage: Stage::Idle(feed),
            batch: Vec::new(),
            pos: 0,
        }
    }

    /// The first pull: draw the first batch here, and hand `feed` to a
    /// worker only if the batch filled, since a shorter day has ended.
    fn first_batch(&mut self, mut feed: F) {
        let mut batch = Vec::with_capacity(BATCH); // ndslint::allow(no-alloc-in-hot-path, reason = "per-run set-up: the first batch, which later circulates to the worker")
        self.stage = match fill(&mut feed, &mut batch) {
            Ok(true) => Self::start(feed),
            Ok(false) => Stage::Over(None),
            Err(err) => Stage::Over(Some(err)),
        };
        self.batch = batch;
    }

    fn start(feed: F) -> Stage<F> {
        let (batch_tx, batches) = mpsc::sync_channel(0);
        let (spent, spent_rx) = mpsc::channel();
        let spawned = thread::Builder::new()
            .name("nds-read-ahead".into())
            .spawn(move || draw(feed, &batch_tx, &spent_rx));
        match spawned {
            Ok(handle) => Stage::Live(Worker {
                batches,
                spent,
                handle,
            }),
            Err(e) => Stage::Over(Some(SchedError::InvalidConfig {
                field: "feed",
                reason: format!("cannot start the read-ahead thread: {e}"),
            })),
        }
    }

    /// Leave the live stage with `end`, joining the worker and
    /// re-raising its panic.
    fn finish(&mut self, end: Option<SchedError>) {
        if let Stage::Live(worker) = mem::replace(&mut self.stage, Stage::Over(end)) {
            if let Err(payload) = worker.join() {
                panic::resume_unwind(payload);
            }
        }
    }
}

impl Worker {
    /// Close both channels, which wakes a worker blocked in `send`, and
    /// wait for it to exit.
    fn join(self) -> thread::Result<()> {
        let Self {
            batches,
            spent,
            handle,
        } = self;
        drop((batches, spent));
        handle.join()
    }
}

impl<F: JobFeed + Send + 'static> JobFeed for ReadAhead<F> {
    fn next_chunk(&mut self, max: usize, buf: &mut Vec<JobSpec>) -> Result<usize, SchedError> {
        if matches!(self.stage, Stage::Idle(_)) {
            if let Stage::Idle(feed) = mem::replace(&mut self.stage, Stage::Over(None)) {
                self.first_batch(feed);
            }
        }
        let mut n = 0;
        while n < max {
            if self.pos < self.batch.len() {
                let take = (max - n).min(self.batch.len() - self.pos);
                buf.extend_from_slice(&self.batch[self.pos..self.pos + take]);
                self.pos += take;
                n += take;
                continue;
            }
            let worker = match &mut self.stage {
                Stage::Live(worker) => worker,
                // Jobs appended by this call go out first; the error
                // waits for a call with nothing else to return.
                Stage::Over(Some(err)) if n == 0 => return Err(err.clone()), // ndslint::allow(no-alloc-in-hot-path, reason = "error path: a failed feed repeats its error")
                Stage::Over(_) | Stage::Idle(_) => break,
            };
            // A worker that has exited has dropped its end; nothing is
            // lost.
            let _ = worker.spent.send(mem::take(&mut self.batch));
            self.pos = 0;
            match worker.batches.recv() {
                Ok(Msg::Batch(batch)) => self.batch = batch,
                Ok(Msg::End) => self.finish(None),
                Ok(Msg::Failed(err)) => self.finish(Some(err)),
                Err(_) => {
                    self.finish(None);
                    unreachable!("the worker sends End or Failed before it exits unless it panics");
                }
            }
        }
        Ok(n)
    }
}

impl<F> Drop for ReadAhead<F> {
    fn drop(&mut self) {
        if let Stage::Live(worker) = mem::replace(&mut self.stage, Stage::Over(None)) {
            // Drop must not panic: the hook has already printed a worker
            // panic, and a reader that stops early has its own result.
            let _ = worker.join();
        }
    }
}

/// The worker: fill batches from `feed` and hand them over until the
/// feed ends or fails, or the reader hangs up.
fn draw<F: JobFeed>(mut feed: F, batches: &SyncSender<Msg>, spent: &Receiver<Vec<JobSpec>>) {
    loop {
        let mut batch = match spent.try_recv() {
            Ok(mut batch) => {
                batch.clear();
                batch
            }
            // With the reader's first batch, two buffers circulate.
            Err(_) => Vec::with_capacity(BATCH), // ndslint::allow(no-alloc-in-hot-path, reason = "per-run set-up: the worker allocates its first batch, then reuses served ones")
        };
        let filled = fill(&mut feed, &mut batch);
        if !batch.is_empty() && batches.send(Msg::Batch(batch)).is_err() {
            return;
        }
        let last = match filled {
            Ok(true) => continue,
            Ok(false) => Msg::End,
            Err(err) => Msg::Failed(err),
        };
        // A reader that hung up needs no last word.
        let _ = batches.send(last);
        return;
    }
}

/// Fill `batch` up to [`BATCH`] specs; `Ok(false)` once `feed` is
/// exhausted.
fn fill<F: JobFeed>(feed: &mut F, batch: &mut Vec<JobSpec>) -> Result<bool, SchedError> {
    while batch.len() < BATCH {
        if feed.next_chunk(BATCH - batch.len(), batch)? == 0 {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SyntheticTrace, Workload};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// A day that does not end on a batch boundary.
    const DAY: usize = 3 * BATCH + 5;

    fn bits(jobs: &[JobSpec]) -> Vec<(u32, u64, u64)> {
        jobs.iter()
            .map(|j| (j.tasks, j.task_demand.to_bits(), j.arrival.to_bits()))
            .collect()
    }

    /// Pull `feed` to exhaustion with `max(call)` jobs per call,
    /// checking that each call returns exactly `min(max, remaining)`
    /// and that an exhausted feed keeps returning 0.
    fn drain(feed: &mut dyn JobFeed, total: usize, max: impl Fn(usize) -> usize) -> Vec<JobSpec> {
        let mut got = Vec::new();
        for call in 0.. {
            let want = max(call).min(total - got.len());
            let n = feed.next_chunk(max(call), &mut got).unwrap();
            assert_eq!(n, want, "call {call} with max {}", max(call));
            if n == 0 {
                break;
            }
        }
        for _ in 0..3 {
            assert_eq!(feed.next_chunk(BATCH, &mut got).unwrap(), 0, "exhausted");
        }
        got
    }

    #[test]
    fn chunks_concatenate_to_generate_bit_for_bit() {
        let day = SyntheticTrace::datacenter(64, DAY);
        let want = bits(&day.generate(7, 3).unwrap());
        for max in [1, 7, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH] {
            let mut feed = day.feed(7, 3).unwrap();
            let got = drain(feed.as_mut(), DAY, |_| max);
            assert!(bits(&got) == want, "max {max}");
        }
        // A max that changes on every call, crossing batch boundaries
        // at every offset.
        let sizes = [1, BATCH + 3, 17, BATCH - 2, 2 * BATCH, 5];
        let mut feed = day.feed(7, 3).unwrap();
        let got = drain(feed.as_mut(), DAY, |call| sizes[call % sizes.len()]);
        assert!(bits(&got) == want, "changing max");
    }

    /// What a scripted inner feed does on reaching job `at`.
    #[derive(Clone, Copy)]
    enum Fault {
        Fail,
        Panic,
    }

    /// A scripted inner feed: jobs `0..len` (arrival = index), served
    /// `min(max, left)` per call like the synthetic sampler, with an
    /// optional fault on reaching job `at`. It counts its polls, logs
    /// each poll's thread and first job, and marks its drop; a slow
    /// drop takes 50 ms first.
    struct Script {
        next: usize,
        len: usize,
        fault: Option<(usize, Fault)>,
        polls: Arc<AtomicUsize>,
        poll_log: Arc<Mutex<Vec<(ThreadId, usize)>>>,
        dropped: Arc<AtomicBool>,
        slow_drop: bool,
    }

    impl Script {
        fn new(len: usize, fault: Option<(usize, Fault)>) -> Self {
            Self {
                next: 0,
                len,
                fault,
                polls: Arc::default(),
                poll_log: Arc::default(),
                dropped: Arc::default(),
                slow_drop: false,
            }
        }
    }

    fn spec(i: usize) -> JobSpec {
        JobSpec {
            tasks: 1,
            task_demand: 1.0,
            arrival: i as f64,
        }
    }

    impl JobFeed for Script {
        fn next_chunk(&mut self, max: usize, buf: &mut Vec<JobSpec>) -> Result<usize, SchedError> {
            self.polls.fetch_add(1, Ordering::SeqCst);
            let poll = (thread::current().id(), self.next);
            self.poll_log.lock().unwrap().push(poll);
            let stop = match self.fault {
                Some((at, _)) if at < self.len => at,
                _ => self.len,
            };
            if self.next == stop {
                match self.fault {
                    Some((at, Fault::Fail)) if at == stop => {
                        return Err(SchedError::InvalidConfig {
                            field: "feed",
                            reason: format!("scripted failure at job {at}"),
                        })
                    }
                    Some((at, Fault::Panic)) if at == stop => panic!("scripted panic at job {at}"),
                    _ => return Ok(0),
                }
            }
            let n = max.min(stop - self.next);
            buf.extend((self.next..self.next + n).map(spec));
            self.next += n;
            Ok(n)
        }
    }

    impl Drop for Script {
        fn drop(&mut self) {
            if self.slow_drop {
                // Leaves a reader that skipped the join time to look.
                std::thread::sleep(Duration::from_millis(50));
            }
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    /// Every call's result until the first error, and the jobs served.
    fn script_calls(
        feed: &mut dyn JobFeed,
        max: usize,
    ) -> (Vec<Result<usize, SchedError>>, Vec<JobSpec>) {
        let (mut calls, mut jobs) = (Vec::new(), Vec::new());
        loop {
            let r = feed.next_chunk(max, &mut jobs);
            let last = !matches!(r, Ok(n) if n > 0);
            calls.push(r);
            if last {
                return (calls, jobs);
            }
        }
    }

    #[test]
    fn inner_errors_arrive_at_the_bare_feeds_call() {
        for at in [0, 5, BATCH, BATCH + 3, 2 * BATCH] {
            for max in [1, 7, BATCH, BATCH + 1] {
                let fault = Some((at, Fault::Fail));
                let bare = script_calls(&mut Script::new(DAY, fault), max);
                let mut ahead = ReadAhead::new(Script::new(DAY, fault));
                let read = script_calls(&mut ahead, max);
                assert_eq!(read.1.len(), at, "every job before the error");
                assert!(read == bare, "fault at {at}, max {max}");
                let again = ahead.next_chunk(max, &mut Vec::new());
                assert_eq!(again, *bare.0.last().unwrap(), "the error repeats");
            }
        }
    }

    #[test]
    fn a_worker_panic_is_reraised_in_the_reader() {
        let at = BATCH + 3;
        let mut feed = ReadAhead::new(Script::new(DAY, Some((at, Fault::Panic))));
        let mut jobs = Vec::new();
        let caught = panic::catch_unwind(panic::AssertUnwindSafe(|| loop {
            let n = feed.next_chunk(100, &mut jobs).unwrap();
            assert!(n > 0, "a panicked worker read as the end of the day");
        }))
        .expect_err("the worker's panic reaches the reader");
        let message = caught.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(message, &format!("scripted panic at job {at}"));
        assert_eq!(jobs.len(), BATCH, "only whole batches drawn before it");
    }

    #[test]
    fn an_unpulled_feed_spawns_nothing_and_never_polls() {
        let script = Script::new(DAY, None);
        let (polls, dropped) = (script.polls.clone(), script.dropped.clone());
        drop(ReadAhead::new(script));
        assert_eq!(polls.load(Ordering::SeqCst), 0, "no worker drew a batch");
        assert!(
            dropped.load(Ordering::SeqCst),
            "the inner feed dropped with it"
        );
    }

    #[test]
    fn dropping_a_live_feed_joins_its_worker() {
        let mut script = Script::new(10 * BATCH, None);
        script.slow_drop = true;
        let (polls, dropped) = (script.polls.clone(), script.dropped.clone());
        let mut feed = ReadAhead::new(script);
        assert_eq!(feed.next_chunk(10, &mut Vec::new()).unwrap(), 10);
        drop(feed);
        assert!(
            dropped.load(Ordering::SeqCst),
            "the worker had dropped the inner feed when drop returned"
        );
        let drawn = polls.load(Ordering::SeqCst);
        assert!(
            (1..10).contains(&drawn),
            "stopped mid-day after {drawn} batches"
        );
    }

    #[test]
    fn only_jobs_past_the_first_batch_are_drawn_off_the_callers_thread() {
        let caller = thread::current().id();
        for (day, max) in [(5, 1), (BATCH - 1, 7), (BATCH - 1, BATCH), (3 * BATCH, 100)] {
            let script = Script::new(day, None);
            let log = script.poll_log.clone();
            drain(&mut ReadAhead::new(script), day, |_| max);
            let log = log.lock().unwrap();
            let (first, later): (Vec<_>, Vec<_>) = log.iter().partition(|&&(_, at)| at < BATCH);
            assert!(!first.is_empty(), "day {day}: the first batch was polled");
            assert!(
                first.iter().all(|&&(thread, _)| thread == caller),
                "day {day}: the first batch is drawn on the caller's thread"
            );
            assert!(
                later.iter().all(|&&(thread, _)| thread != caller),
                "day {day}: later batches are drawn on the worker"
            );
            assert_eq!(later.is_empty(), day < BATCH, "day {day}");
        }
    }
}
