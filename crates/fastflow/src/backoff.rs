//! Progressive backoff with peer wakeup, used by blocking queue operations.
//!
//! FastFlow's run-time busy-waits on its lock-free queues; on a dedicated
//! many-core node that is the right call, but on shared (or single-core)
//! machines pure spinning starves the peer thread. [`Backoff`] implements the
//! usual escalation ladder — a few `spin_loop` hints, then `yield_now` — and
//! ends in a **park** instead of a sleep, so an idle node costs no CPU and
//! resumes as soon as its peer acts rather than when a timer fires.
//!
//! The park is event-driven. A channel side that comes up empty (or full)
//! registers the calling thread in the channel's waker slot; the peer
//! wakes that thread after every push (a consumer), every pop from a bounded
//! queue (a producer blocked on a full queue) and on close (both sides).
//! No wakeup is lost because parking is *announce-then-recheck*: the first
//! [`Backoff::wait`] on the park rung only announces the intent to park and
//! returns, the caller polls its queues once more, and only the next `wait`
//! parks. A peer that acts after the announcement sees it and unparks the
//! thread; a peer that acted before it left an item the recheck finds. The
//! park still carries a bounded timeout, as a safety net only.

use std::sync::atomic::{fence, AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::Duration;

/// Escalating wait strategy for lock-free retry loops: spin → yield → park.
///
/// Each [`wait`](Backoff::wait) climbs one rung. The last rung alternates
/// between announcing the thread as parked (then returning, so the caller
/// re-polls) and parking until a channel peer wakes it, or a safety timeout
/// expires. [`reset`](Backoff::reset) after a successful operation returns
/// to the bottom of the ladder and withdraws the announcement.
///
/// A thread is woken only by channels it has polled and found empty (or
/// full), so a loop must poll every queue it is waiting on between two
/// `wait` calls.
///
/// # Examples
///
/// ```
/// use fastflow::backoff::Backoff;
///
/// let mut backoff = Backoff::new();
/// let mut tries = 0;
/// loop {
///     tries += 1;
///     if tries == 3 {
///         break;
///     }
///     backoff.wait();
/// }
/// assert_eq!(tries, 3);
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    step: u32,
    /// This backoff announced a park and the caller has rechecked since.
    /// Tracked per backoff, not per thread, so a blocking call nested in a
    /// polling loop makes its own announcement before it parks.
    announced: bool,
}

/// Number of rounds spent issuing `spin_loop` hints before yielding.
const SPIN_ROUNDS: u32 = 6;
/// Number of rounds spent yielding before parking.
const YIELD_ROUNDS: u32 = 16;
/// Upper bound on one park. Peers wake a parked thread; the timeout only
/// guards against a wakeup the protocol failed to deliver. The crate's unit
/// tests use a long one, so a lost wakeup shows up there as a stall instead
/// of hiding behind the safety net.
pub(crate) const PARK_TIMEOUT: Duration = if cfg!(test) {
    Duration::from_secs(1)
} else {
    Duration::from_millis(5)
};

impl Backoff {
    /// Creates a fresh backoff at the start of the ladder.
    pub fn new() -> Self {
        Backoff {
            step: 0,
            announced: false,
        }
    }

    /// Waits one round, escalating from spinning to yielding to parking.
    pub fn wait(&mut self) {
        if self.step < SPIN_ROUNDS {
            for _ in 0..(1 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < SPIN_ROUNDS + YIELD_ROUNDS {
            thread::yield_now();
        } else {
            ThreadWaker::with_current(|w| {
                // Park only if the announcement still stands: a peer that
                // withdrew it has already acted, so announce again instead.
                if self.announced && w.armed.load(Ordering::Relaxed) {
                    thread::park_timeout(PARK_TIMEOUT);
                    w.armed.store(false, Ordering::Relaxed);
                    self.announced = false;
                    #[cfg(test)]
                    tests::PARKS.with(|p| p.set(p.get() + 1));
                } else {
                    // Announce, then let the caller recheck its queues.
                    w.armed.store(true, Ordering::Relaxed);
                    fence(Ordering::SeqCst);
                    self.announced = true;
                }
            });
        }
        self.step = self.step.saturating_add(1);
    }

    /// Resets the ladder after a successful operation.
    pub fn reset(&mut self) {
        if self.announced {
            ThreadWaker::with_current(|w| w.armed.store(false, Ordering::Relaxed));
            self.announced = false;
        }
        self.step = 0;
    }

    /// True once the ladder has escalated past busy-waiting.
    ///
    /// Callers that multiplex several queues (e.g. a farm collector) use this
    /// to decide when a full polling sweep came up empty.
    pub fn is_parked(&self) -> bool {
        self.step >= SPIN_ROUNDS + YIELD_ROUNDS
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}

/// The park state of one thread, shared with the channels it waits on.
#[derive(Debug)]
struct ThreadWaker {
    thread: Thread,
    /// Set while the thread has announced that it is about to park.
    armed: AtomicBool,
}

impl ThreadWaker {
    fn with_current<R>(f: impl FnOnce(&Arc<ThreadWaker>) -> R) -> R {
        thread_local! {
            static CURRENT: Arc<ThreadWaker> = Arc::new(ThreadWaker {
                thread: thread::current(),
                armed: AtomicBool::new(false),
            });
        }
        CURRENT.with(f)
    }
}

/// One side's parking spot in a channel: the thread last registered as
/// waiting on that side, which the peer wakes.
///
/// The peer's [`wake`](WakerSlot::wake) runs after every push or pop, so it
/// only reads: `current` points at the registered waker, and `keep` holds a
/// reference to every waker ever registered here, which keeps whatever
/// `current` points at alive for as long as the slot.
#[derive(Debug, Default)]
pub(crate) struct WakerSlot {
    current: AtomicPtr<ThreadWaker>,
    keep: Mutex<Vec<Arc<ThreadWaker>>>,
}

impl WakerSlot {
    /// Registers the calling thread as the one waiting on this side.
    pub(crate) fn register(&self) {
        ThreadWaker::with_current(|w| {
            let ptr = Arc::as_ptr(w).cast_mut();
            if self.current.load(Ordering::Relaxed) != ptr {
                let mut keep = self.keep.lock().unwrap_or_else(|e| e.into_inner());
                if !keep.iter().any(|k| Arc::ptr_eq(k, w)) {
                    keep.push(Arc::clone(w));
                }
                self.current.store(ptr, Ordering::Release);
                // The caller rechecks the queue next; the peer must not miss
                // this registration if the recheck misses the peer's change.
                fence(Ordering::SeqCst);
            }
        });
    }

    /// Wakes the registered thread if it announced a park. Call after the
    /// state change the waiter polls for (push, pop or close).
    pub(crate) fn wake(&self) {
        // Pairs with the fence between announcing and rechecking: either
        // the waiter's recheck sees the change or this sees the announcement.
        fence(Ordering::SeqCst);
        let ptr = self.current.load(Ordering::Acquire);
        // SAFETY: a non-null `current` points at a waker `keep` owns, and
        // `keep` only grows while the slot lives.
        if let Some(w) = unsafe { ptr.as_ref() } {
            if w.armed.load(Ordering::Relaxed) && w.armed.swap(false, Ordering::Relaxed) {
                w.thread.unpark();
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Instant;

    thread_local! {
        /// Parks (not announcements) performed by the current thread.
        pub(crate) static PARKS: Cell<u64> = const { Cell::new(0) };
    }

    /// True while the thread registered in `slot` has announced a park.
    pub(crate) fn announced(slot: &WakerSlot) -> bool {
        // SAFETY: as in `WakerSlot::wake`.
        unsafe { slot.current.load(Ordering::Acquire).as_ref() }
            .is_some_and(|w| w.armed.load(Ordering::Relaxed))
    }

    #[test]
    fn ladder_escalates_and_resets() {
        let mut b = Backoff::new();
        assert!(!b.is_parked());
        for _ in 0..(SPIN_ROUNDS + YIELD_ROUNDS) {
            b.wait();
        }
        assert!(b.is_parked());
        b.reset();
        assert!(!b.is_parked());
    }

    #[test]
    fn default_matches_new() {
        assert!(!Backoff::default().is_parked());
    }

    fn armed() -> bool {
        ThreadWaker::with_current(|w| w.armed.load(Ordering::Relaxed))
    }

    #[test]
    fn wait_saturates_instead_of_overflowing() {
        let mut b = Backoff::new();
        b.step = u32::MAX - 1;
        b.wait(); // announce
        thread::current().unpark(); // make the park return at once
        b.wait();
        assert!(b.is_parked());
        b.reset();
    }

    #[test]
    fn park_rung_announces_then_parks_until_a_peer_wakes_it() {
        let slot = Arc::new(WakerSlot::default());
        slot.wake(); // nobody registered: no-op
        slot.register();
        slot.wake(); // registered but not announced: no unpark token
        let mut b = Backoff::new();
        b.step = SPIN_ROUNDS + YIELD_ROUNDS;
        let parks = PARKS.with(Cell::get);
        b.wait(); // announce only
        assert!(armed());
        assert_eq!(PARKS.with(Cell::get), parks);
        let t0 = Instant::now();
        let peer = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                slot.wake();
            })
        };
        b.wait(); // parks until the peer's wake
        let waited = t0.elapsed();
        peer.join().unwrap();
        assert_eq!(PARKS.with(Cell::get), parks + 1);
        assert!(
            waited < PARK_TIMEOUT / 2,
            "woken by the timeout: {waited:?}"
        );
        assert!(!armed());
        b.wait(); // announce again
        b.reset();
        assert!(!armed(), "reset withdraws the announcement");
    }
}
