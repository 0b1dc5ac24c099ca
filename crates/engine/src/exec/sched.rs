//! Fair scheduling of morsel tasks across concurrent queries.
//!
//! Each active query owns one [`QueryQueue`] — a FIFO of type-erased morsel
//! tasks — and the [`Scheduler`] hands tasks to pool workers **round-robin
//! across queues, one task per turn**. A query that fans a large operator
//! into thousands of morsels therefore cannot monopolize the workers: every
//! other active query gets a morsel in between, so a short query finishes
//! while a long one is still in flight (morsel-granularity fairness).
//!
//! A query's morsels run at most `parallelism` at a time: pool workers
//! take at most `parallelism - 1` of them concurrently
//! ([`QueryQueue::set_parallelism`]), and the submitting thread, which
//! drains its own queue while it waits, is the last slot. A worker skips a
//! queue at its cap, and a finished morsel wakes the workers again
//! ([`Scheduler::finished`]). This is what bounds a query's concurrently
//! pinned chunks by its own parallelism rather than by the shared pool's
//! size. Progress never depends on the cap: a queue with pending morsels
//! always has its submitter draining it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A type-erased morsel task; it records its own result.
pub(crate) type Task = Box<dyn FnOnce() + Send>;

/// One query's task queue: a FIFO of pending morsels plus its cap on pool
/// workers.
pub(crate) struct QueryQueue {
    id: u64,
    tasks: Mutex<VecDeque<Task>>,
    /// How many of this query's morsels pool workers may run at once.
    worker_cap: AtomicUsize,
    /// This query's morsels currently running on pool workers.
    in_workers: AtomicUsize,
}

impl QueryQueue {
    /// Registration id (unique per scheduler).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Caps the query's concurrently running morsels at `parallelism`:
    /// pool workers take at most `parallelism - 1`, the submitting thread
    /// runs the rest.
    pub(crate) fn set_parallelism(&self, parallelism: usize) {
        self.worker_cap
            .store(parallelism.saturating_sub(1), Ordering::Relaxed);
    }

    fn pop(&self) -> Option<Task> {
        self.tasks.lock().expect("queue lock").pop_front()
    }

    fn has_tasks(&self) -> bool {
        !self.tasks.lock().expect("queue lock").is_empty()
    }
}

impl std::fmt::Debug for QueryQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryQueue")
            .field("id", &self.id)
            .field("pending", &self.tasks.lock().expect("queue lock").len())
            .finish()
    }
}

#[derive(Default)]
struct SchedState {
    /// Active queues in registration order; the round-robin cursor indexes
    /// into this list.
    queues: Vec<Arc<QueryQueue>>,
    cursor: usize,
    shutdown: bool,
}

/// Round-robin morsel scheduler over per-query task queues.
pub(crate) struct Scheduler {
    state: Mutex<SchedState>,
    /// Workers sleep here when every queue is empty.
    work_ready: Condvar,
    next_id: AtomicU64,
    /// Total queued-but-undelivered tasks across all queues.
    depth: AtomicUsize,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("depth", &self.depth.load(Ordering::Relaxed))
            .finish()
    }
}

impl Scheduler {
    /// A scheduler with no registered queries.
    pub(crate) fn new() -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState::default()),
            work_ready: Condvar::new(),
            next_id: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
        }
    }

    /// Registers a new query queue.
    pub(crate) fn register(&self) -> Arc<QueryQueue> {
        let queue = Arc::new(QueryQueue {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            tasks: Mutex::new(VecDeque::new()),
            worker_cap: AtomicUsize::new(usize::MAX),
            in_workers: AtomicUsize::new(0),
        });
        self.state
            .lock()
            .expect("scheduler lock")
            .queues
            .push(Arc::clone(&queue));
        queue
    }

    /// Removes a query queue (on session drop). Any tasks still pending are
    /// dropped unrun — by construction the pool only unregisters after
    /// every submitted task set completed, so the queue is empty then.
    pub(crate) fn unregister(&self, id: u64) {
        let mut state = self.state.lock().expect("scheduler lock");
        if let Some(pos) = state.queues.iter().position(|q| q.id == id) {
            let removed = state.queues.remove(pos);
            let orphaned = removed.tasks.lock().expect("queue lock").len();
            if orphaned > 0 {
                self.depth.fetch_sub(orphaned, Ordering::Relaxed);
            }
            if pos < state.cursor {
                state.cursor -= 1;
            }
            if !state.queues.is_empty() {
                state.cursor %= state.queues.len();
            } else {
                state.cursor = 0;
            }
        }
    }

    /// Enqueues a batch of tasks on `queue` and wakes sleeping workers.
    pub(crate) fn submit(&self, queue: &QueryQueue, tasks: Vec<Task>) {
        let n = tasks.len();
        queue.tasks.lock().expect("queue lock").extend(tasks);
        self.depth.fetch_add(n, Ordering::Relaxed);
        // Taking the scheduler lock before notifying closes the lost-wakeup
        // window: a worker is either still scanning (and will see the new
        // tasks) or already parked on the condvar (and gets the notify).
        drop(self.state.lock().expect("scheduler lock"));
        self.work_ready.notify_all();
    }

    /// The next task for a pool worker: round-robin across active queues,
    /// one task per turn, skipping a queue whose worker cap is reached.
    /// Blocks while no queue has a task to give; returns `None` after
    /// [`shutdown`](Self::shutdown). The worker reports the task's end
    /// with [`finished`](Self::finished).
    pub(crate) fn next_task(&self) -> Option<(Task, Arc<QueryQueue>)> {
        let mut state = self.state.lock().expect("scheduler lock");
        loop {
            if state.shutdown {
                return None;
            }
            let n = state.queues.len();
            for step in 0..n {
                let pos = (state.cursor + step) % n;
                let queue = &state.queues[pos];
                // Only workers holding this lock raise `in_workers`, so
                // the cap cannot be overshot between check and pop.
                if queue.in_workers.load(Ordering::Relaxed)
                    >= queue.worker_cap.load(Ordering::Relaxed)
                {
                    continue;
                }
                if let Some(task) = queue.pop() {
                    queue.in_workers.fetch_add(1, Ordering::Relaxed);
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                    state.cursor = (pos + 1) % n;
                    let queue = Arc::clone(&state.queues[pos]);
                    return Some((task, queue));
                }
            }
            let (next, _) = self
                .work_ready
                .wait_timeout(state, Duration::from_millis(100))
                .expect("scheduler lock");
            state = next;
        }
    }

    /// Ends a task [`next_task`](Self::next_task) handed out, freeing its
    /// slot under `queue`'s worker cap; wakes the workers when the queue
    /// still has tasks, which a worker may have skipped at the cap.
    pub(crate) fn finished(&self, queue: &QueryQueue) {
        queue.in_workers.fetch_sub(1, Ordering::Relaxed);
        if queue.has_tasks() {
            // As in `submit`: the lock closes the lost-wakeup window.
            drop(self.state.lock().expect("scheduler lock"));
            self.work_ready.notify_all();
        }
    }

    /// Pops a task from `queue` only — how a submitting thread helps drain
    /// its *own* query while waiting, without touching other queries' work.
    pub(crate) fn steal_own(&self, queue: &QueryQueue) -> Option<Task> {
        let task = queue.pop()?;
        self.depth.fetch_sub(1, Ordering::Relaxed);
        Some(task)
    }

    /// Total queued (undelivered) tasks across every queue.
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Number of registered (active) queries.
    pub(crate) fn active_queries(&self) -> usize {
        self.state.lock().expect("scheduler lock").queues.len()
    }

    /// Stops all workers: `next_task` returns `None` from now on.
    pub(crate) fn shutdown(&self) {
        self.state.lock().expect("scheduler lock").shutdown = true;
        self.work_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn noop_task(counter: &Arc<AtomicUsize>) -> Task {
        let counter = Arc::clone(counter);
        Box::new(move || {
            counter.fetch_add(1, Ordering::Relaxed);
        })
    }

    #[test]
    fn round_robin_alternates_between_queues() {
        let sched = Scheduler::new();
        let qa = sched.register();
        let qb = sched.register();
        let ran = Arc::new(AtomicUsize::new(0));
        sched.submit(&qa, (0..4).map(|_| noop_task(&ran)).collect());
        sched.submit(&qb, vec![noop_task(&ran)]);
        // Dispatch order must interleave: A, B, A, A, A — queue B's single
        // task goes second even though A was submitted first and has more.
        let mut order = Vec::new();
        for _ in 0..5 {
            let (task, q) = sched.next_task().unwrap();
            order.push(q.id());
            task();
        }
        assert_eq!(order, vec![qa.id(), qb.id(), qa.id(), qa.id(), qa.id()]);
        assert_eq!(ran.load(Ordering::Relaxed), 5);
        assert_eq!(sched.depth(), 0);
    }
}
