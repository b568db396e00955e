//! The driver's one worker pool: long-lived threads serving a single
//! FIFO queue of independent jobs.
//!
//! The workspace builds offline — no `rayon` — so the driver brings its
//! own pool. Both callers have the same shape: the paper allocates every
//! function on its own, so a job never spawns or waits on another.
//!
//! * [`crate::run_suite`] submits one job per function in the
//!   scheduler's cheapest-first order and shuts the pool down once the
//!   suite is queued; the FIFO queue hands jobs out in exactly that
//!   order, whatever the worker count;
//! * the `regalloc-serve` daemon submits one job per admitted request
//!   for as long as it runs.
//!
//! Workers sleep on one condition variable guarded by the queue's own
//! mutex, with the shutdown flag under that same mutex, so a wakeup can
//! never be lost between a worker's check and its wait.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-worker accounting (index = worker id), returned by
/// [`ServicePool::shutdown`].
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Time each worker spent executing jobs.
    pub busy: Vec<Duration>,
    /// Jobs executed per worker.
    pub tasks_per_worker: Vec<usize>,
    /// Time the jobs each worker ran spent queued (submit to start),
    /// summed per worker.
    pub queue_wait_per_worker: Vec<Duration>,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    /// Pending jobs with their submission instants, oldest first.
    jobs: VecDeque<(Instant, Job)>,
    shutting_down: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    cond: Condvar,
    active: AtomicUsize,
    executed: AtomicUsize,
    panicked: AtomicUsize,
}

/// A fixed set of worker threads serving one FIFO job queue.
///
/// * **panic isolation** — a job that panics is counted
///   ([`ServicePool::panicked`]) and its worker keeps serving; a panic
///   can never take the pool down (callers that need the job's outcome
///   notice the missing result themselves);
/// * **graceful shutdown** — [`ServicePool::shutdown`] lets every queued
///   job run before joining the workers, so an accepted job is never
///   dropped on the floor;
/// * the queue itself is unbounded: *admission control belongs to the
///   caller* (the daemon rejects with `BUSY` before submitting), so the
///   pool never has to make a load-shedding decision it lacks context
///   for.
pub struct ServicePool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<(Duration, usize, Duration)>>>,
}

impl ServicePool {
    /// Spin up `jobs` long-lived workers (0 is treated as 1).
    pub fn new(jobs: usize) -> ServicePool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            cond: Condvar::new(),
            active: AtomicUsize::new(0),
            executed: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
        });
        let workers = (0..jobs.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("regalloc-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ServicePool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Queue a job behind every job already submitted. A job submitted
    /// after [`ServicePool::shutdown`] is dropped unrun.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        let mut q = self.shared.queue.lock().unwrap();
        if q.shutting_down {
            return;
        }
        q.jobs.push_back((Instant::now(), Box::new(job)));
        drop(q);
        self.shared.cond.notify_one();
    }

    /// Jobs queued but not yet started.
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().unwrap().jobs.len()
    }

    /// Jobs currently executing.
    pub fn active(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Jobs completed (including panicked ones).
    pub fn executed(&self) -> usize {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Jobs that panicked (isolated, worker survived).
    pub fn panicked(&self) -> usize {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// True when nothing is queued or executing.
    pub fn is_idle(&self) -> bool {
        self.queued() == 0 && self.active() == 0
    }

    /// Let every already-submitted job run, join the workers and return
    /// their accounting. Idempotent: a repeated call joins nothing and
    /// returns empty statistics.
    pub fn shutdown(&self) -> PoolStats {
        self.shared.queue.lock().unwrap().shutting_down = true;
        self.shared.cond.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        let mut stats = PoolStats::default();
        for w in workers {
            // Job panics are caught inside the loop, so a worker thread
            // itself only fails if the pool's own bookkeeping panicked.
            let (busy, tasks, queue_wait) = w.join().expect("pool worker exited cleanly");
            stats.busy.push(busy);
            stats.tasks_per_worker.push(tasks);
            stats.queue_wait_per_worker.push(queue_wait);
        }
        stats
    }
}

/// Serve the queue until shutdown leaves it empty; returns this worker's
/// (busy time, jobs run, summed queue wait).
fn worker_loop(shared: &Shared) -> (Duration, usize, Duration) {
    let (mut busy, mut tasks, mut queue_wait) = (Duration::ZERO, 0, Duration::ZERO);
    loop {
        let (queued_at, job) = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    // Counted active before the lock drops, so
                    // `is_idle` never sees a claimed job as neither
                    // queued nor running.
                    shared.active.fetch_add(1, Ordering::SeqCst);
                    break job;
                }
                if q.shutting_down {
                    return (busy, tasks, queue_wait);
                }
                q = shared.cond.wait(q).unwrap();
            }
        };
        let t0 = Instant::now();
        queue_wait += t0 - queued_at;
        if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panicked.fetch_add(1, Ordering::SeqCst);
        }
        busy += t0.elapsed();
        tasks += 1;
        shared.executed.fetch_add(1, Ordering::SeqCst);
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_runs_jobs_in_submission_order() {
        // The FIFO queue is what keeps a cheapest-first schedule
        // cheapest-first.
        let pool = ServicePool::new(1);
        let ran = Arc::new(Mutex::new(Vec::new()));
        for i in 0..32 {
            let ran = Arc::clone(&ran);
            pool.submit(move || ran.lock().unwrap().push(i));
        }
        pool.shutdown();
        assert_eq!(*ran.lock().unwrap(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn a_parked_workers_backlog_reaches_the_other_worker() {
        // The first job parks its worker until every other job has
        // started (bounded wait, so a starved pool still ends the test):
        // the backlog can only get there through the other worker.
        let pool = ServicePool::new(2);
        let n = 16;
        let started = Arc::new(AtomicUsize::new(0));
        let unparked = Arc::new(AtomicUsize::new(0));
        for i in 0..n {
            let (started, unparked) = (Arc::clone(&started), Arc::clone(&unparked));
            pool.submit(move || {
                started.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    let t0 = Instant::now();
                    while started.load(Ordering::SeqCst) < n
                        && t0.elapsed() < Duration::from_secs(10)
                    {
                        std::thread::yield_now();
                    }
                    if started.load(Ordering::SeqCst) == n {
                        unparked.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
        let stats = pool.shutdown();
        assert_eq!(unparked.load(Ordering::SeqCst), 1, "backlog ran meanwhile");
        let mut tasks = stats.tasks_per_worker.clone();
        tasks.sort();
        assert_eq!(tasks, vec![1, n - 1], "{:?}", stats.tasks_per_worker);
    }

    #[test]
    fn busy_time_tasks_and_queue_wait_are_accounted() {
        let pool = ServicePool::new(2);
        for _ in 0..12 {
            pool.submit(|| std::thread::sleep(Duration::from_millis(2)));
        }
        let stats = pool.shutdown();
        assert_eq!(stats.busy.len(), 2);
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 12);
        assert_eq!(stats.queue_wait_per_worker.len(), 2);
        let busy: Duration = stats.busy.iter().sum();
        assert!(busy >= Duration::from_millis(24), "busy {busy:?}");
        // Twelve 2 ms jobs on two workers: the later ones must wait.
        let wait: Duration = stats.queue_wait_per_worker.iter().sum();
        assert!(wait >= Duration::from_millis(2), "queue wait {wait:?}");
        assert!(
            pool.shutdown().busy.is_empty(),
            "a second shutdown joins nothing"
        );
    }

    #[test]
    fn service_pool_runs_every_submitted_job() {
        let pool = ServicePool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert_eq!(pool.executed(), 64);
        assert_eq!(pool.panicked(), 0);
        assert!(pool.is_idle());
        pool.submit(|| unreachable!("a job submitted after shutdown never runs"));
        assert!(pool.is_idle());
    }

    #[test]
    fn service_pool_isolates_panics_and_keeps_serving() {
        let pool = ServicePool::new(2);
        let ok = Arc::new(AtomicUsize::new(0));
        for i in 0..20 {
            let ok = Arc::clone(&ok);
            pool.submit(move || {
                if i % 4 == 0 {
                    panic!("injected job panic");
                }
                ok.fetch_add(1, Ordering::SeqCst);
            });
        }
        let stats = pool.shutdown();
        assert_eq!(pool.panicked(), 5);
        assert_eq!(ok.load(Ordering::SeqCst), 15);
        assert_eq!(pool.executed(), 20);
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 20);
    }

    #[test]
    fn service_pool_shutdown_drains_queued_jobs_first() {
        // One worker, many queued jobs: shutdown must let the backlog run.
        let pool = ServicePool::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                std::thread::sleep(Duration::from_micros(200));
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 32, "no accepted job dropped");
    }
}
