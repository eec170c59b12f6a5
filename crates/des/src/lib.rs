//! # desim — a discrete-event platform simulator
//!
//! The reproduction's stand-in for hardware we do not have: the paper
//! evaluates on a 32-core Nehalem, an Infiniband cluster, Amazon EC2 and
//! a Tesla K40; this crate provides the event-driven core
//! used by `distrt` to model those platforms. Service times are fed from
//! *measured* per-quantum costs of the real Gillespie engine, so load
//! imbalance in the models is authentic — only the hardware timing is
//! synthetic.
//!
//! The design is a classic event-calendar simulation: a [`World`] handles
//! typed events and schedules follow-ups through the [`Scheduler`];
//! [`simulate`] drains the calendar. [`Resource`] models a pool of
//! identical servers (cores, network links) with FIFO queueing.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

/// A pending event: fires at `time` with payload `event`.
#[derive(Debug)]
struct Scheduled<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reverse ordering: BinaryHeap is a max-heap, we need earliest-first.
        // Ties break by insertion sequence for determinism.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are not NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

/// The event calendar handed to [`World::handle`].
#[derive(Debug)]
pub struct Scheduler<E> {
    now: f64,
    seq: u64,
    queue: BinaryHeap<Scheduled<E>>,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: 0.0,
            seq: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `event` after `delay` (clamped at zero).
    ///
    /// # Panics
    ///
    /// Panics if `delay` is NaN.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(!delay.is_nan(), "delay must not be NaN");
        self.schedule_at(self.now + delay.max(0.0), event);
    }

    /// Schedules `event` at absolute time `at` (clamped at `now`).
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN.
    pub fn schedule_at(&mut self, at: f64, event: E) {
        assert!(!at.is_nan(), "event time must not be NaN");
        let time = at.max(self.now);
        self.queue.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// A model driven by the event loop.
pub trait World {
    /// Event payload type.
    type Event;

    /// Handles one event; may schedule follow-ups.
    fn handle(&mut self, time: f64, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Runs the world to quiescence, returning the time of the last event.
///
/// `initial` seeds the calendar with `(time, event)` pairs.
///
/// # Examples
///
/// ```
/// use desim::{simulate, Scheduler, World};
///
/// struct Counter {
///     fired: u32,
/// }
/// impl World for Counter {
///     type Event = u32;
///     fn handle(&mut self, _t: f64, n: u32, sched: &mut Scheduler<u32>) {
///         self.fired += 1;
///         if n > 0 {
///             sched.schedule_in(1.0, n - 1);
///         }
///     }
/// }
///
/// let mut w = Counter { fired: 0 };
/// let end = simulate(&mut w, vec![(0.0, 3u32)]);
/// assert_eq!(w.fired, 4);
/// assert_eq!(end, 3.0);
/// ```
pub fn simulate<W: World>(world: &mut W, initial: Vec<(f64, W::Event)>) -> f64 {
    let mut sched = Scheduler::new();
    for (t, e) in initial {
        sched.schedule_at(t, e);
    }
    let mut last = 0.0;
    while let Some(next) = sched.queue.pop() {
        sched.now = next.time;
        last = next.time;
        world.handle(next.time, next.event, &mut sched);
    }
    last
}

/// A pool of identical servers with FIFO admission (cores of a host, lanes
/// of a link).
///
/// The resource does not schedule events itself; the world asks it when a
/// newly arriving job can start and informs it of completions. Busy-time
/// accounting yields utilisation for the reports.
#[derive(Debug, Clone)]
pub struct Resource {
    capacity: usize,
    busy: usize,
    /// FIFO of queued job start requests (opaque ids).
    waiting: std::collections::VecDeque<u64>,
    busy_time: f64,
    last_change: f64,
    total_jobs: u64,
}

impl Resource {
    /// Creates a pool of `capacity` servers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "resource capacity must be non-zero");
        Resource {
            capacity,
            busy: 0,
            waiting: std::collections::VecDeque::new(),
            busy_time: 0.0,
            last_change: 0.0,
            total_jobs: 0,
        }
    }

    /// Number of servers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Servers currently busy.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Jobs waiting for a server.
    pub fn queued(&self) -> usize {
        self.waiting.len()
    }

    /// Requests a server at time `now` for job `id`.
    ///
    /// Returns `true` when the job starts immediately; otherwise it is
    /// queued and will be released by a later [`release`](Resource::release).
    pub fn acquire(&mut self, now: f64, id: u64) -> bool {
        self.account(now);
        self.total_jobs += 1;
        if self.busy < self.capacity {
            self.busy += 1;
            true
        } else {
            self.waiting.push_back(id);
            false
        }
    }

    /// Releases a server at time `now`; returns the queued job (if any)
    /// that should start right away.
    ///
    /// # Panics
    ///
    /// Panics if no server is busy.
    pub fn release(&mut self, now: f64) -> Option<u64> {
        assert!(self.busy > 0, "release without acquire");
        self.account(now);
        match self.waiting.pop_front() {
            Some(id) => Some(id), // server stays busy, handed to next job
            None => {
                self.busy -= 1;
                None
            }
        }
    }

    fn account(&mut self, now: f64) {
        self.busy_time += self.busy.min(self.capacity) as f64 * (now - self.last_change);
        self.last_change = now;
    }

    /// Aggregate busy time across servers up to the last state change.
    pub fn busy_time(&self) -> f64 {
        self.busy_time
    }

    /// Utilisation over `[0, horizon]` (0 when horizon is zero).
    pub fn utilisation(&self, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            0.0
        } else {
            self.busy_time / (self.capacity as f64 * horizon)
        }
    }

    /// Total jobs that requested this resource.
    pub fn total_jobs(&self) -> u64 {
        self.total_jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// M/D/c-style world: `jobs` arrive at t=0, each takes `service`.
    struct Pool {
        resource: Resource,
        service: f64,
        done: u32,
    }

    #[derive(Debug)]
    enum Ev {
        Arrive(u64),
        Finish,
    }

    impl World for Pool {
        type Event = Ev;
        fn handle(&mut self, t: f64, ev: Ev, sched: &mut Scheduler<Ev>) {
            match ev {
                Ev::Arrive(id) => {
                    if self.resource.acquire(t, id) {
                        sched.schedule_in(self.service, Ev::Finish);
                    }
                }
                Ev::Finish => {
                    self.done += 1;
                    if self.resource.release(t).is_some() {
                        sched.schedule_in(self.service, Ev::Finish);
                    }
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        struct Recorder {
            seen: Vec<f64>,
        }
        impl World for Recorder {
            type Event = ();
            fn handle(&mut self, t: f64, _: (), _: &mut Scheduler<()>) {
                self.seen.push(t);
            }
        }
        let mut w = Recorder { seen: vec![] };
        simulate(&mut w, vec![(3.0, ()), (1.0, ()), (2.0, ())]);
        assert_eq!(w.seen, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        struct Recorder {
            seen: Vec<u32>,
        }
        impl World for Recorder {
            type Event = u32;
            fn handle(&mut self, _: f64, e: u32, _: &mut Scheduler<u32>) {
                self.seen.push(e);
            }
        }
        let mut w = Recorder { seen: vec![] };
        simulate(&mut w, vec![(1.0, 1), (1.0, 2), (1.0, 3)]);
        assert_eq!(w.seen, vec![1, 2, 3]);
    }

    #[test]
    fn pool_makespan_is_work_over_capacity() {
        // 8 unit jobs on 2 servers -> makespan 4.
        let mut w = Pool {
            resource: Resource::new(2),
            service: 1.0,
            done: 0,
        };
        let arrivals = (0..8).map(|i| (0.0, Ev::Arrive(i))).collect();
        let end = simulate(&mut w, arrivals);
        assert_eq!(w.done, 8);
        assert_eq!(end, 4.0);
        assert!((w.resource.utilisation(end) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_server_serialises() {
        let mut w = Pool {
            resource: Resource::new(1),
            service: 2.0,
            done: 0,
        };
        let arrivals = (0..3).map(|i| (0.0, Ev::Arrive(i))).collect();
        let end = simulate(&mut w, arrivals);
        assert_eq!(end, 6.0);
    }

    #[test]
    fn staggered_arrivals_idle_the_pool() {
        let mut w = Pool {
            resource: Resource::new(4),
            service: 1.0,
            done: 0,
        };
        let arrivals = (0..4).map(|i| (i as f64 * 10.0, Ev::Arrive(i))).collect();
        let end = simulate(&mut w, arrivals);
        assert_eq!(end, 31.0);
        assert!(w.resource.utilisation(end) < 0.05);
    }

    #[test]
    fn schedule_in_clamps_negative_delay() {
        struct W2 {
            times: Vec<f64>,
        }
        impl World for W2 {
            type Event = bool;
            fn handle(&mut self, t: f64, again: bool, sched: &mut Scheduler<bool>) {
                self.times.push(t);
                if again {
                    sched.schedule_in(-5.0, false);
                }
            }
        }
        let mut w = W2 { times: vec![] };
        simulate(&mut w, vec![(2.0, true)]);
        assert_eq!(w.times, vec![2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn release_without_acquire_panics() {
        Resource::new(1).release(0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_resource_panics() {
        let _ = Resource::new(0);
    }
}
