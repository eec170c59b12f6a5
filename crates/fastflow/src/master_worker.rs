//! Farm with feedback: the master–worker core pattern.
//!
//! The paper's simulation pipeline is a farm whose workers execute one
//! *simulation quantum* and then "reschedule back the operation along the
//! feedback channel". This module provides exactly that shape:
//!
//! ```text
//!              ┌──────── notices + feedback (unbounded) ────────┐
//!              │  ┌─────────────── outputs (bounded) ─────────┐ │
//!              ▼  ▼                                           │ │
//! upstream ─▶ master ─▶ tasks (bounded, 1 slot) ─▶ workers ───┴─┘
//!                │
//!                └─▶ downstream
//! ```
//!
//! The master is both emitter and collector, and it never blocks on a
//! worker. [`Scheduler::submit`] appends to a FIFO *ready queue* local to
//! the master; each loop the master forwards worker outputs, handles
//! completion notices, admits every upstream item that has arrived, and
//! hands ready tasks, oldest first, with a non-blocking send to the
//! least-loaded worker that has a free slot. Because feedback joins the
//! back of the ready queue, tasks advance breadth-first: every task gets
//! its next quantum before any task gets two. The only wait the master
//! takes is downstream backpressure.
//!
//! **Per-task FIFO contract.** Before the master handles worker *w*'s
//! completion notice it forwards everything *w* emitted, and a task's next
//! step can only be dispatched from that notice's feedback. So everything a
//! task emits in one step reaches downstream, in emission order, before
//! anything it emits in a later step — whichever workers ran the steps.
//!
//! Feedback channels are **unbounded** ([`crate::unbounded`]) and the master
//! drains worker outputs on every loop, so no worker can deadlock the cycle
//! by blocking on a full queue. The master performs exact in-flight
//! accounting — the run-time notifies it of every task completion, with or
//! without a feedback payload — which is what enables the load-rebalancing
//! the paper credits for GPU/CPU portability.

use std::collections::VecDeque;

use crate::backoff::Backoff;
use crate::channel::{self, Receiver, Sender, TryRecvError, TrySendError};
use crate::node::Outbox;
use crate::pipeline::{spawn_named, Pipeline};

/// Scheduling interface handed to [`Master`] callbacks.
#[derive(Debug)]
pub struct Scheduler<'a, T> {
    ready: &'a mut VecDeque<T>,
    inflight: &'a [usize],
    submitted: &'a mut u64,
}

impl<T: Send> Scheduler<'_, T> {
    /// Queues `task` for dispatch; never blocks.
    ///
    /// Queued tasks leave in submission order, each to the least-loaded
    /// worker with a free slot.
    pub fn submit(&mut self, task: T) {
        *self.submitted += 1;
        self.ready.push_back(task);
    }

    /// Drops every task still waiting in the ready queue and returns how
    /// many there were. Tasks already handed to a worker still complete.
    pub fn drop_queued(&mut self) -> usize {
        let dropped = self.ready.len();
        self.ready.clear();
        dropped
    }

    /// Number of workers in the farm.
    pub fn worker_count(&self) -> usize {
        self.inflight.len()
    }

    /// Tasks handed to worker `w` (queued in its slot or executing).
    pub fn inflight_at(&self, w: usize) -> usize {
        self.inflight[w]
    }

    /// Total tasks handed to workers and not yet completed.
    pub fn inflight(&self) -> usize {
        self.inflight.iter().sum()
    }

    /// Total tasks submitted since the farm started.
    pub fn submitted(&self) -> u64 {
        *self.submitted
    }
}

/// User logic of the master (emitter-with-feedback) node.
pub trait Master: Send + 'static {
    /// Items arriving from upstream.
    type In: Send + 'static;
    /// Tasks dispatched to workers.
    type Task: Send + 'static;
    /// Feedback payloads returned by workers.
    type Fb: Send + 'static;

    /// Handles one upstream item, typically by submitting task(s).
    fn on_upstream(&mut self, item: Self::In, sched: &mut Scheduler<'_, Self::Task>);

    /// Handles one worker feedback payload (e.g. reschedules an incomplete
    /// simulation task).
    fn on_feedback(&mut self, fb: Self::Fb, sched: &mut Scheduler<'_, Self::Task>);

    /// Called when upstream is exhausted and no task is queued or in flight.
    ///
    /// Return `true` to terminate the farm; return `false` after submitting
    /// more work to keep it running. The default terminates.
    fn on_idle(&mut self, sched: &mut Scheduler<'_, Self::Task>) -> bool {
        let _ = sched;
        true
    }
}

/// User logic of a worker in a feedback farm.
pub trait FeedbackWorker: Send + 'static {
    /// Tasks received from the master.
    type Task: Send + 'static;
    /// Feedback payload sent back to the master.
    type Fb: Send + 'static;
    /// Items forwarded downstream (through the master).
    type Out: Send + 'static;

    /// Called once before the first task.
    fn on_start(&mut self) {}

    /// Executes one task; may forward items downstream via `out` and may
    /// return a feedback payload for the master (e.g. the continuation of an
    /// incomplete simulation).
    fn on_task(&mut self, task: Self::Task, out: &mut Outbox<'_, Self::Out>) -> Option<Self::Fb>;

    /// Called once after the last task.
    fn on_end(&mut self, out: &mut Outbox<'_, Self::Out>) {
        let _ = out;
    }
}

impl<T: Send + 'static> Pipeline<T> {
    /// Appends a master–worker farm with feedback to the pipeline.
    ///
    /// `workers` supplies one [`FeedbackWorker`] per farm worker; `master`
    /// schedules tasks in response to upstream items and feedback.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is empty.
    pub fn master_worker_farm<M, W>(mut self, master: M, workers: Vec<W>) -> Pipeline<W::Out>
    where
        M: Master<In = T>,
        W: FeedbackWorker<Task = M::Task, Fb = M::Fb>,
    {
        assert!(!workers.is_empty(), "a farm needs at least one worker");
        let n = workers.len();
        let name = "mwfarm";

        // Master -> workers (bounded, 1 slot: on-demand semantics).
        let (task_tx, task_rx): (Vec<_>, Vec<_>) =
            (0..n).map(|_| channel::bounded::<M::Task>(1)).unzip();
        // Workers -> master: unbounded completion notices, each carrying the
        // feedback payload if any, and bounded outputs.
        let (fb_tx, fb_rx): (Vec<_>, Vec<_>) = (0..n)
            .map(|_| channel::unbounded::<Option<M::Fb>>())
            .unzip();
        let (out_tx, out_rx): (Vec<_>, Vec<_>) = (0..n)
            .map(|_| channel::bounded::<W::Out>(self.capacity))
            .unzip();
        // Master -> downstream.
        let (down_tx, down_rx) = channel::bounded(self.capacity);

        // Master thread.
        let upstream = self.rx;
        let master_name = format!("{name}.master");
        let handle = spawn_named(master_name.clone(), move || {
            run_master(master, upstream, task_tx, fb_rx, out_rx, down_tx);
        });
        self.handles.push((master_name, handle));

        // Worker threads.
        for (i, ((worker, rx), (fb, out))) in workers
            .into_iter()
            .zip(task_rx)
            .zip(fb_tx.into_iter().zip(out_tx))
            .enumerate()
        {
            let wname = format!("{name}.worker.{i}");
            let handle = spawn_named(wname.clone(), move || {
                run_feedback_worker(worker, rx, fb, out);
            });
            self.handles.push((wname, handle));
        }

        Pipeline {
            rx: down_rx,
            handles: self.handles,
            stats: self.stats,
            capacity: self.capacity,
        }
    }
}

fn run_master<M: Master, Out: Send>(
    mut master: M,
    upstream: Receiver<M::In>,
    tasks: Vec<Sender<M::Task>>,
    notices: Vec<Receiver<Option<M::Fb>>>,
    outputs: Vec<Receiver<Out>>,
    downstream: Sender<Out>,
) {
    let n = tasks.len();
    let mut ready = VecDeque::new();
    let mut inflight = vec![0usize; n];
    let mut submitted = 0u64;
    let mut upstream_open = true;
    // Dispatch order scratch; `next` rotates ties between equal loads.
    let mut order = Vec::with_capacity(n);
    let mut next = 0usize;
    let mut backoff = Backoff::new();
    macro_rules! sched {
        () => {
            &mut Scheduler {
                ready: &mut ready,
                inflight: &inflight,
                submitted: &mut submitted,
            }
        };
    }
    'run: while !downstream.is_disconnected() {
        let mut progressed = false;

        // 1. Collect: forward each worker's outputs, then handle its
        //    completion notices, each after everything emitted before it.
        for w in 0..n {
            progressed |= forward(&outputs[w], &downstream);
            loop {
                match notices[w].try_recv() {
                    Ok(payload) => {
                        progressed = true;
                        forward(&outputs[w], &downstream);
                        inflight[w] -= 1;
                        if let Some(fb) = payload {
                            master.on_feedback(fb, sched!());
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    // The worker died (panicked); joining the farm reports it.
                    Err(TryRecvError::Disconnected) => break 'run,
                }
            }
        }

        // 2. Admit every upstream item that has arrived.
        while upstream_open {
            match upstream.try_recv() {
                Ok(item) => master.on_upstream(item, sched!()),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => upstream_open = false,
            }
            progressed = true;
        }

        // 3. Dispatch the ready queue, oldest first, without blocking.
        'dispatch: while let Some(mut task) = ready.pop_front() {
            order.clear();
            order.extend((0..n).map(|k| (next + k) % n));
            order.sort_by_key(|&w| inflight[w]);
            for &w in &order {
                match tasks[w].try_send(task) {
                    Ok(()) => {
                        inflight[w] += 1;
                        next = (w + 1) % n;
                        progressed = true;
                        continue 'dispatch;
                    }
                    Err(TrySendError::Full(t) | TrySendError::Disconnected(t)) => task = t,
                }
            }
            ready.push_front(task);
            break;
        }

        // 4. Terminate once upstream is exhausted and nothing is queued or
        //    in flight.
        if !upstream_open && ready.is_empty() && inflight.iter().all(|&c| c == 0) {
            if master.on_idle(sched!()) {
                break;
            }
            progressed = true;
        }

        if progressed {
            backoff.reset();
        } else {
            backoff.wait();
        }
    }
    // Dropping the task senders broadcasts EOS to the workers; forward what
    // they emit on the way out.
    drop(tasks);
    for rx in &outputs {
        for item in rx {
            if downstream.send(item).is_err() {
                return;
            }
        }
    }
}

/// Forwards every item `rx` holds right now; true if there was any.
fn forward<T: Send>(rx: &Receiver<T>, downstream: &Sender<T>) -> bool {
    let mut any = false;
    while let Ok(item) = rx.try_recv() {
        any = true;
        // A failed send means downstream is gone; the loop then stops.
        let _ = downstream.send(item);
    }
    any
}

fn run_feedback_worker<W: FeedbackWorker>(
    mut worker: W,
    tasks: Receiver<W::Task>,
    notices: Sender<Option<W::Fb>>,
    out: Sender<W::Out>,
) {
    let mut outbox = Outbox::new(&out);
    worker.on_start();
    while let Some(task) = tasks.recv() {
        let payload = worker.on_task(task, &mut outbox);
        if notices.send(payload).is_err() {
            break; // master gone (only possible on panic)
        }
        if outbox.is_disconnected() {
            break;
        }
    }
    worker.on_end(&mut outbox);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A task that needs `remaining` quanta; each quantum forwards one
    /// result item and feeds the task back until done.
    #[derive(Debug)]
    struct QuantumTask {
        id: usize,
        remaining: u32,
    }

    struct QuantumMaster;

    impl Master for QuantumMaster {
        type In = QuantumTask;
        type Task = QuantumTask;
        type Fb = QuantumTask;

        fn on_upstream(&mut self, item: QuantumTask, sched: &mut Scheduler<'_, QuantumTask>) {
            sched.submit(item);
        }

        fn on_feedback(&mut self, fb: QuantumTask, sched: &mut Scheduler<'_, QuantumTask>) {
            sched.submit(fb);
        }
    }

    struct QuantumWorker;

    impl FeedbackWorker for QuantumWorker {
        type Task = QuantumTask;
        type Fb = QuantumTask;
        type Out = (usize, u32);

        fn on_task(
            &mut self,
            mut task: QuantumTask,
            out: &mut Outbox<'_, (usize, u32)>,
        ) -> Option<QuantumTask> {
            task.remaining -= 1;
            out.push((task.id, task.remaining));
            if task.remaining > 0 {
                Some(task)
            } else {
                None
            }
        }
    }

    #[test]
    fn tasks_cycle_until_complete() {
        let tasks: Vec<QuantumTask> = (0..20)
            .map(|id| QuantumTask {
                id,
                remaining: (id as u32 % 5) + 1,
            })
            .collect();
        let expected_items: usize = tasks.iter().map(|t| t.remaining as usize).sum();
        let out: Vec<(usize, u32)> = Pipeline::from_source(tasks.into_iter())
            .master_worker_farm(
                QuantumMaster,
                vec![QuantumWorker, QuantumWorker, QuantumWorker],
            )
            .collect()
            .unwrap();
        assert_eq!(out.len(), expected_items);
        // Every task must emit exactly one item with remaining == 0.
        let finished: Vec<usize> = out
            .iter()
            .filter(|(_, rem)| *rem == 0)
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(finished.len(), 20);
    }

    #[test]
    fn per_task_quanta_are_in_order() {
        let tasks = vec![QuantumTask {
            id: 7,
            remaining: 10,
        }];
        let out: Vec<(usize, u32)> = Pipeline::from_source(tasks.into_iter())
            .master_worker_farm(QuantumMaster, vec![QuantumWorker, QuantumWorker])
            .collect()
            .unwrap();
        let rems: Vec<u32> = out.iter().map(|(_, r)| *r).collect();
        assert_eq!(rems, (0..10).rev().collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_feedback_farm_completes() {
        let tasks: Vec<QuantumTask> = (0..5).map(|id| QuantumTask { id, remaining: 3 }).collect();
        let out: Vec<(usize, u32)> = Pipeline::from_source(tasks.into_iter())
            .master_worker_farm(QuantumMaster, vec![QuantumWorker])
            .collect()
            .unwrap();
        assert_eq!(out.len(), 15);
    }

    /// Master that generates work in `on_idle` for two extra rounds,
    /// exercising the keep-alive return value.
    struct RoundMaster {
        rounds_left: u32,
        next_id: usize,
    }

    impl Master for RoundMaster {
        type In = QuantumTask;
        type Task = QuantumTask;
        type Fb = QuantumTask;

        fn on_upstream(&mut self, item: QuantumTask, sched: &mut Scheduler<'_, QuantumTask>) {
            sched.submit(item);
        }

        fn on_feedback(&mut self, fb: QuantumTask, sched: &mut Scheduler<'_, QuantumTask>) {
            sched.submit(fb);
        }

        fn on_idle(&mut self, sched: &mut Scheduler<'_, QuantumTask>) -> bool {
            if self.rounds_left == 0 {
                return true;
            }
            self.rounds_left -= 1;
            sched.submit(QuantumTask {
                id: self.next_id,
                remaining: 1,
            });
            self.next_id += 1;
            false
        }
    }

    #[test]
    fn on_idle_can_extend_the_run() {
        let tasks = vec![QuantumTask {
            id: 0,
            remaining: 1,
        }];
        let out: Vec<(usize, u32)> = Pipeline::from_source(tasks.into_iter())
            .master_worker_farm(
                RoundMaster {
                    rounds_left: 2,
                    next_id: 100,
                },
                vec![QuantumWorker, QuantumWorker],
            )
            .collect()
            .unwrap();
        // 1 upstream task + 2 idle-generated tasks, 1 quantum each.
        assert_eq!(out.len(), 3);
        assert!(out.iter().any(|(id, _)| *id == 100));
        assert!(out.iter().any(|(id, _)| *id == 101));
    }

    #[test]
    fn heavy_fan_in_many_tasks_few_workers() {
        let tasks: Vec<QuantumTask> = (0..300)
            .map(|id| QuantumTask {
                id,
                remaining: 1 + (id as u32 % 3),
            })
            .collect();
        let expected: usize = tasks.iter().map(|t| t.remaining as usize).sum();
        let out: Vec<(usize, u32)> = Pipeline::from_source(tasks.into_iter())
            .master_worker_farm(QuantumMaster, vec![QuantumWorker, QuantumWorker])
            .collect()
            .unwrap();
        assert_eq!(out.len(), expected);
    }

    #[test]
    fn stress_each_tasks_outputs_arrive_in_order() {
        const TASKS: usize = 200;
        const QUANTA: u32 = 20;
        let tasks = (0..TASKS).map(|id| QuantumTask {
            id,
            remaining: QUANTA,
        });
        let out: Vec<(usize, u32)> = Pipeline::from_source_with_capacity(tasks, 4)
            .master_worker_farm(QuantumMaster, (0..4).map(|_| QuantumWorker).collect())
            .collect()
            .unwrap();
        assert_eq!(out.len(), TASKS * QUANTA as usize);
        let mut next = vec![QUANTA; TASKS];
        for (id, rem) in out {
            assert_eq!(rem + 1, next[id], "task {id} out of order");
            next[id] = rem;
        }
        assert!(next.iter().all(|&r| r == 0));
    }

    /// Master that stops at the first feedback: drops the ready queue and
    /// every later task, as a steered simulation farm does.
    struct StopMaster {
        admitted: Arc<AtomicUsize>,
        dropped: Arc<AtomicUsize>,
        stopped: bool,
    }

    impl Master for StopMaster {
        type In = QuantumTask;
        type Task = QuantumTask;
        type Fb = QuantumTask;

        fn on_upstream(&mut self, item: QuantumTask, sched: &mut Scheduler<'_, QuantumTask>) {
            self.admitted.fetch_add(1, Ordering::SeqCst);
            if !self.stopped {
                sched.submit(item);
            }
        }

        fn on_feedback(&mut self, _fb: QuantumTask, sched: &mut Scheduler<'_, QuantumTask>) {
            if !self.stopped {
                self.stopped = true;
                self.dropped.store(sched.drop_queued(), Ordering::SeqCst);
                assert_eq!(sched.drop_queued(), 0);
            }
        }
    }

    /// Worker whose first task waits until the master admitted `all` items.
    struct GatedWorker {
        admitted: Arc<AtomicUsize>,
        all: usize,
    }

    impl FeedbackWorker for GatedWorker {
        type Task = QuantumTask;
        type Fb = QuantumTask;
        type Out = (usize, u32);

        fn on_task(
            &mut self,
            task: QuantumTask,
            out: &mut Outbox<'_, (usize, u32)>,
        ) -> Option<QuantumTask> {
            while self.admitted.load(Ordering::SeqCst) < self.all {
                std::thread::yield_now();
            }
            QuantumWorker.on_task(task, out)
        }
    }

    #[test]
    fn drop_queued_lets_only_inflight_tasks_finish() {
        const TASKS: usize = 10;
        let admitted = Arc::new(AtomicUsize::new(0));
        let dropped = Arc::new(AtomicUsize::new(usize::MAX));
        let tasks = (0..TASKS).map(|id| QuantumTask { id, remaining: 2 });
        let master = StopMaster {
            admitted: Arc::clone(&admitted),
            dropped: Arc::clone(&dropped),
            stopped: false,
        };
        let worker = GatedWorker {
            admitted,
            all: TASKS,
        };
        let out: Vec<(usize, u32)> = Pipeline::from_source(tasks)
            .master_worker_farm(master, vec![worker])
            .collect()
            .unwrap();
        // At the first feedback task 0 has run and task 1 may sit in the
        // worker's slot: only those quanta finish; every other task was
        // dropped from the ready queue and never ran.
        assert!(
            matches!(out.as_slice(), [(0, 1)] | [(0, 1), (1, 1)]),
            "{out:?}"
        );
        assert_eq!(out.len() + dropped.load(Ordering::SeqCst), TASKS);
    }
}
