//! The worker pool: bounded admission, batch-aware dispatch, clean shutdown.
//!
//! Requests wait in a bounded `VecDeque` behind a `Mutex` + `Condvar`; a
//! full queue rejects at admission ([`crate::ServiceError::Overloaded`])
//! instead of building an unbounded backlog — the service degrades by
//! shedding load, not by growing latency without limit.
//!
//! **Batching.** Each job may carry an opaque *group* key (the service uses
//! `(database, epoch)`). When a worker wakes it pops the front job and, if
//! batching is enabled (`batch_max > 1`), additionally extracts up to
//! `batch_max - 1` *same-group* jobs from anywhere in the queue, leaving
//! other groups in place and in order. The batch runs on that one worker
//! back to back, so consecutive executions share whatever per-snapshot
//! state warms between them — in this service the epoch-keyed match cache
//! and the CPU caches over one snapshot's index postings. Grouping never
//! delays admission or reorders jobs *within* a group, and a job's deadline
//! is still re-checked when its turn in the batch comes (time spent queued
//! and time spent behind batch-mates both count against it).
//!
//! Each worker is a plain `std::thread`. Deadline aborts inside execution
//! are cooperative (see `tlc::exec`), so a timed-out request returns a
//! typed error and the worker moves on — nothing is left wedged. A job
//! that panics is caught on its worker and answered with
//! [`Reply::Panicked`]; the worker keeps serving the rest of its batch and
//! the queue, so a panic never shrinks the pool or strands other replies.
//!
//! Dropping the pool closes admission; workers drain what was already
//! admitted and exit, and `Drop` joins them all.
//!
//! **Abandonment.** The reply channel is a `sync_channel(1)`, so a worker's
//! send always succeeds (or observes disconnection) without blocking: a
//! caller that gave up waiting ([`crate::ServiceConfig::client_wait`]) and
//! dropped its receiver costs the worker nothing — the job's result is
//! discarded and the worker moves to the next job. Abandonment is a
//! client-side decision; the pool itself never cancels running work.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of queued work: a closure producing a `T`, the reply slot, the
/// request's absolute deadline (checked again at dequeue), the admission
/// timestamp the queue-wait measurement is taken from, and the batching
/// group it may share a dispatch with.
struct Job<T> {
    deadline: Option<Instant>,
    submitted: Instant,
    group: Option<Arc<str>>,
    work: Box<dyn FnOnce() -> T + Send>,
    reply: SyncSender<Reply<T>>,
}

/// What the worker sends back. Every reply carries the measured
/// submit→dequeue wait, so the service can report queue pressure separately
/// from execution latency.
pub enum Reply<T> {
    /// The closure's result.
    Done {
        /// The closure's return value.
        value: T,
        /// How long the job sat in the queue before a worker picked it up.
        queue_wait: Duration,
    },
    /// The deadline had already passed when the job was dequeued; the
    /// closure never ran.
    ExpiredInQueue {
        /// How long the job sat in the queue before expiry was noticed.
        queue_wait: Duration,
    },
    /// The closure panicked. The worker caught the panic and keeps serving.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
        /// How long the job sat in the queue before a worker picked it up.
        queue_wait: Duration,
    },
}

/// Why a submission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity.
    QueueFull,
    /// The pool is shutting down.
    Disconnected,
}

/// Cumulative dispatch counters; read through [`Pool::batch_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Dispatches performed (each runs one or more jobs on one worker).
    pub batches: u64,
    /// Jobs run across all dispatches.
    pub jobs: u64,
    /// Largest batch dispatched so far.
    pub max_batch: u64,
}

struct State<T> {
    jobs: VecDeque<Job<T>>,
    open: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    batch_max: usize,
    batches: AtomicU64,
    batched_jobs: AtomicU64,
    max_batch: AtomicU64,
}

/// Fixed-size worker pool over a bounded job queue with same-group
/// batch dispatch.
pub struct Pool<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    queue_depth: usize,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> Pool<T> {
    /// Spawns `workers` threads behind a queue admitting at most
    /// `queue_depth` waiting jobs, dispatching one job at a time.
    pub fn new(workers: usize, queue_depth: usize) -> Pool<T> {
        Pool::batched(workers, queue_depth, 1)
    }

    /// Like [`Pool::new`], but a worker picking up a job also claims up to
    /// `batch_max - 1` queued jobs of the same group and runs them back to
    /// back. `batch_max` ≤ 1 disables batching.
    pub fn batched(workers: usize, queue_depth: usize, batch_max: usize) -> Pool<T> {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { jobs: VecDeque::new(), open: true }),
            available: Condvar::new(),
            batch_max: batch_max.max(1),
            batches: AtomicU64::new(0),
            batched_jobs: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tlc-service-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Pool { shared, queue_depth: queue_depth.max(1), workers: handles }
    }

    /// Queues `work` with no batching group; returns the reply channel to
    /// block on. Fails fast if the queue is full.
    pub fn submit(
        &self,
        deadline: Option<Instant>,
        work: Box<dyn FnOnce() -> T + Send>,
    ) -> Result<Receiver<Reply<T>>, SubmitError> {
        self.submit_grouped(deadline, None, work)
    }

    /// Queues `work` under an optional batching `group` (jobs sharing a
    /// group may be dispatched together); returns the reply channel to
    /// block on. Fails fast if the queue is full.
    pub fn submit_grouped(
        &self,
        deadline: Option<Instant>,
        group: Option<Arc<str>>,
        work: Box<dyn FnOnce() -> T + Send>,
    ) -> Result<Receiver<Reply<T>>, SubmitError> {
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job { deadline, submitted: Instant::now(), group, work, reply: reply_tx };
        {
            let mut st = self.shared.state.lock().unwrap();
            if !st.open {
                return Err(SubmitError::Disconnected);
            }
            if st.jobs.len() >= self.queue_depth {
                return Err(SubmitError::QueueFull);
            }
            st.jobs.push_back(job);
        }
        self.shared.available.notify_one();
        Ok(reply_rx)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Cumulative dispatch counters.
    pub fn batch_stats(&self) -> BatchStats {
        BatchStats {
            batches: self.shared.batches.load(Ordering::Relaxed),
            jobs: self.shared.batched_jobs.load(Ordering::Relaxed),
            max_batch: self.shared.max_batch.load(Ordering::Relaxed),
        }
    }
}

impl<T: Send + 'static> Drop for Pool<T> {
    fn drop(&mut self) {
        // Closing admission ends the worker loops once the queue drains.
        self.shared.state.lock().unwrap().open = false;
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop<T>(shared: Arc<Shared<T>>) {
    loop {
        let mut batch = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(first) = st.jobs.pop_front() {
                    let mut batch = vec![first];
                    if shared.batch_max > 1 {
                        if let Some(group) = batch[0].group.clone() {
                            // Claim same-group jobs from anywhere in the
                            // queue; other groups keep their positions.
                            let mut i = 0;
                            while i < st.jobs.len() && batch.len() < shared.batch_max {
                                if st.jobs[i].group.as_deref() == Some(&*group) {
                                    batch.push(st.jobs.remove(i).expect("index in bounds"));
                                } else {
                                    i += 1;
                                }
                            }
                        }
                    }
                    break batch;
                }
                if !st.open {
                    return; // queue drained and admission closed: shut down
                }
                st = shared.available.wait(st).unwrap();
            }
        };
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared.batched_jobs.fetch_add(batch.len() as u64, Ordering::Relaxed);
        shared.max_batch.fetch_max(batch.len() as u64, Ordering::Relaxed);
        for job in batch.drain(..) {
            let queue_wait = job.submitted.elapsed();
            let reply = match job.deadline {
                Some(d) if Instant::now() >= d => Reply::ExpiredInQueue { queue_wait },
                _ => match catch_unwind(AssertUnwindSafe(job.work)) {
                    Ok(value) => Reply::Done { value, queue_wait },
                    Err(payload) => {
                        Reply::Panicked { message: panic_message(&*payload), queue_wait }
                    }
                },
            };
            // The requester may have given up (e.g. its own recv timeout);
            // a dead reply channel is not a worker error.
            let _ = job.reply.send(reply);
        }
    }
}

/// The text of a panic payload: `panic!` with a literal carries a `&str`,
/// with format arguments a `String`.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => s.to_string(),
        None => payload.downcast_ref::<String>().cloned().unwrap_or_else(|| "(no message)".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn executes_submitted_work() {
        let pool: Pool<i32> = Pool::new(2, 8);
        let rx = pool.submit(None, Box::new(|| 40 + 2)).unwrap();
        match rx.recv().unwrap() {
            Reply::Done { value, queue_wait } => {
                assert_eq!(value, 42);
                assert!(queue_wait < Duration::from_secs(5));
            }
            _ => panic!("no deadline was set"),
        }
        let s = pool.batch_stats();
        assert_eq!((s.batches, s.jobs, s.max_batch), (1, 1, 1));
    }

    #[test]
    fn full_queue_rejects_immediately() {
        // One worker, queue depth 1: park the worker, fill the queue, then
        // the next submit must be rejected.
        let pool: Pool<()> = Pool::new(1, 1);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let _busy = pool
            .submit(
                None,
                Box::new(move || {
                    let _ = block_rx.recv();
                }),
            )
            .unwrap();
        // Wait for the worker to pick the blocking job up, then fill the queue.
        std::thread::sleep(Duration::from_millis(50));
        let _queued = pool.submit(None, Box::new(|| ())).unwrap();
        let rejected = pool.submit(None, Box::new(|| ()));
        assert_eq!(rejected.unwrap_err(), SubmitError::QueueFull);
        block_tx.send(()).unwrap();
    }

    #[test]
    fn queued_past_deadline_never_runs() {
        let pool: Pool<i32> = Pool::new(1, 4);
        let past = Instant::now() - Duration::from_millis(1);
        let rx = pool.submit(Some(past), Box::new(|| panic!("must not run"))).unwrap();
        assert!(matches!(rx.recv().unwrap(), Reply::ExpiredInQueue { .. }));
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let pool: Pool<u64> = Pool::new(4, 16);
        let receivers: Vec<_> =
            (0..8).map(|i| pool.submit(None, Box::new(move || i)).unwrap()).collect();
        drop(pool); // drains the queue, joins the threads
        for (i, rx) in receivers.into_iter().enumerate() {
            match rx.recv().unwrap() {
                Reply::Done { value, .. } => assert_eq!(value, i as u64),
                _ => panic!("no deadline"),
            }
        }
    }

    #[test]
    fn worker_survives_an_abandoned_reply_channel() {
        // The caller drops its receiver before the job runs — the deadlock
        // risk a rendezvous reply channel would have. The worker must shrug
        // and keep serving.
        let pool: Pool<i32> = Pool::new(1, 4);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let gate = pool
            .submit(
                None,
                Box::new(move || {
                    let _ = block_rx.recv();
                    0
                }),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(20)); // worker is now parked in the gate job
        let abandoned = pool.submit(None, Box::new(|| 7)).unwrap();
        drop(abandoned); // caller gives up while the job is still queued
        block_tx.send(()).unwrap(); // release the worker: it runs the abandoned job next
        drop(gate);
        // The same (sole) worker still answers later submissions.
        let rx = pool.submit(None, Box::new(|| 99)).unwrap();
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            Reply::Done { value, .. } => assert_eq!(value, 99),
            _ => panic!("no deadline"),
        }
    }

    #[test]
    fn queue_wait_reflects_time_spent_queued() {
        // One busy worker: the second job must wait for the first to finish,
        // and its reported queue wait must cover that delay.
        let pool: Pool<()> = Pool::new(1, 4);
        let _busy =
            pool.submit(None, Box::new(|| std::thread::sleep(Duration::from_millis(60)))).unwrap();
        std::thread::sleep(Duration::from_millis(10)); // let the worker pick it up
        let rx = pool.submit(None, Box::new(|| ())).unwrap();
        match rx.recv().unwrap() {
            Reply::Done { queue_wait, .. } => {
                assert!(queue_wait >= Duration::from_millis(30), "waited only {queue_wait:?}");
            }
            _ => panic!("no deadline"),
        }
    }

    #[test]
    fn same_group_jobs_dispatch_as_one_batch() {
        // One worker parked in a gate job; queue six jobs alternating
        // between two groups; when the worker frees up, each dispatch must
        // claim all same-group jobs (up to batch_max) in one go.
        let pool: Pool<usize> = Pool::batched(1, 16, 8);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let _gate = pool
            .submit(
                None,
                Box::new(move || {
                    let _ = block_rx.recv();
                    0
                }),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(20)); // gate job is running
        let a: Arc<str> = Arc::from("dbA\u{1}0");
        let b: Arc<str> = Arc::from("dbB\u{1}0");
        let receivers: Vec<_> = [&a, &b, &a, &b, &a, &b]
            .iter()
            .enumerate()
            .map(|(i, g)| {
                pool.submit_grouped(None, Some(Arc::clone(g)), Box::new(move || i)).unwrap()
            })
            .collect();
        block_tx.send(()).unwrap();
        for (i, rx) in receivers.into_iter().enumerate() {
            match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
                Reply::Done { value, .. } => assert_eq!(value, i),
                _ => panic!("no deadline"),
            }
        }
        // Gate dispatch + one batch per group: 3 dispatches for 7 jobs,
        // with a largest batch of 3.
        let s = pool.batch_stats();
        assert_eq!((s.batches, s.jobs, s.max_batch), (3, 7, 3));
    }

    #[test]
    fn batching_preserves_within_group_order_and_other_groups() {
        // batch_max 2 with 4 same-group jobs: two dispatches of two, values
        // delivered in submission order within the group.
        let pool: Pool<usize> = Pool::batched(1, 16, 2);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let gate = pool
            .submit(
                None,
                Box::new(move || {
                    let _ = block_rx.recv();
                    0
                }),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let g: Arc<str> = Arc::from("db\u{1}7");
        let order = Arc::new(Mutex::new(Vec::new()));
        let receivers: Vec<_> = (0..4)
            .map(|i| {
                let order = Arc::clone(&order);
                pool.submit_grouped(
                    None,
                    Some(Arc::clone(&g)),
                    Box::new(move || {
                        order.lock().unwrap().push(i);
                        i
                    }),
                )
                .unwrap()
            })
            .collect();
        block_tx.send(()).unwrap();
        for rx in receivers {
            let _ = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
        let s = pool.batch_stats();
        assert_eq!((s.batches, s.max_batch), (3, 2)); // gate + 2 batches of 2
        drop(gate);
    }

    #[test]
    fn deadline_is_rechecked_per_job_within_a_batch() {
        // Two same-group jobs: the first sleeps past the second's deadline,
        // so the second must expire in queue even though both were claimed
        // in one batch.
        let pool: Pool<u32> = Pool::batched(1, 16, 4);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let gate = pool
            .submit(
                None,
                Box::new(move || {
                    let _ = block_rx.recv();
                    0
                }),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let g: Arc<str> = Arc::from("db\u{1}0");
        let slow = pool
            .submit_grouped(
                None,
                Some(Arc::clone(&g)),
                Box::new(|| {
                    std::thread::sleep(Duration::from_millis(80));
                    1
                }),
            )
            .unwrap();
        let doomed = pool
            .submit_grouped(
                Some(Instant::now() + Duration::from_millis(20)),
                Some(Arc::clone(&g)),
                Box::new(|| panic!("deadline must expire first")),
            )
            .unwrap();
        block_tx.send(()).unwrap();
        assert!(matches!(
            slow.recv_timeout(Duration::from_secs(10)).unwrap(),
            Reply::Done { value: 1, .. }
        ));
        assert!(matches!(
            doomed.recv_timeout(Duration::from_secs(10)).unwrap(),
            Reply::ExpiredInQueue { .. }
        ));
        drop(gate);
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        // One worker and batching on: the panicking job and the normal job
        // behind it may share a dispatch. Both must be answered, and the
        // sole worker must still serve later submissions.
        let pool: Pool<i32> = Pool::batched(1, 8, 8);
        let g: Arc<str> = Arc::from("db\u{1}0");
        let boom =
            pool.submit_grouped(None, Some(Arc::clone(&g)), Box::new(|| panic!("boom"))).unwrap();
        let next = pool.submit_grouped(None, Some(g), Box::new(|| 7)).unwrap();
        match boom.recv_timeout(Duration::from_secs(10)).unwrap() {
            Reply::Panicked { message, .. } => assert_eq!(message, "boom"),
            _ => panic!("the panic must come back as Reply::Panicked"),
        }
        assert!(matches!(
            next.recv_timeout(Duration::from_secs(10)).unwrap(),
            Reply::Done { value: 7, .. }
        ));
        let later = pool.submit(None, Box::new(|| 8)).unwrap();
        assert!(matches!(
            later.recv_timeout(Duration::from_secs(10)).unwrap(),
            Reply::Done { value: 8, .. }
        ));
    }

    #[test]
    fn submit_after_shutdown_is_disconnected() {
        let pool: Pool<i32> = Pool::new(1, 4);
        let shared = Arc::clone(&pool.shared);
        drop(pool);
        // Simulate a racing submitter observing the closed queue.
        let closed = !shared.state.lock().unwrap().open;
        assert!(closed);
    }
}
