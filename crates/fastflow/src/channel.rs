//! Safe typed channels over the lock-free SPSC queues.
//!
//! A channel is the FastFlow *stream*: the arrows of Fig. 2 in the paper.
//! [`Sender`] and [`Receiver`] own their side of the queue (neither is
//! `Clone`), which is what makes handing out the `unsafe` queue operations
//! sound. Bounded channels provide backpressure between pipeline stages;
//! unbounded channels serve feedback edges where backpressure could deadlock
//! the cycle.
//!
//! Blocking operations are event-driven: a side that finds the queue empty
//! (or full) registers its thread with the channel before it parks, and the
//! peer wakes it — a push wakes the consumer, a pop from a bounded queue
//! wakes a producer blocked on a full queue, and closing either end wakes
//! both (see [`crate::backoff`]).

use std::sync::Arc;

use crate::backoff::{Backoff, WakerSlot};
use crate::spsc::{PushError, SpscQueue};
use crate::unbounded::UnboundedSpsc;

/// Error returned when sending on a channel whose receiver is gone.
///
/// Carries the unsent value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel is disconnected")
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Sender::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is full; the value is handed back.
    Full(T),
    /// The receiver was dropped; the value is handed back.
    Disconnected(T),
}

impl<T> std::fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "channel is full"),
            TrySendError::Disconnected(_) => write!(f, "channel is disconnected"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for TrySendError<T> {}

// `Flavor` only ever lives inside the `Arc<Shared<_>>` a channel hands
// out, so the bounded variant's cache-padded bulk is heap-resident and
// never copied; boxing it would only add a pointer chase to the hot path.
#[allow(clippy::large_enum_variant)]
enum Flavor<T> {
    Bounded(SpscQueue<T>),
    Unbounded(UnboundedSpsc<T>),
}

struct Shared<T> {
    queue: Flavor<T>,
    /// The consumer, woken by pushes and close.
    rx_waker: WakerSlot,
    /// The producer, woken by pops from a bounded queue and close.
    tx_waker: WakerSlot,
}

impl<T> Shared<T> {
    fn new(queue: Flavor<T>) -> Arc<Self> {
        Arc::new(Shared {
            queue,
            rx_waker: WakerSlot::default(),
            tx_waker: WakerSlot::default(),
        })
    }

    fn close(&self) {
        match &self.queue {
            Flavor::Bounded(q) => q.close(),
            Flavor::Unbounded(q) => q.close(),
        }
        self.rx_waker.wake();
        self.tx_waker.wake();
    }

    fn is_closed(&self) -> bool {
        match &self.queue {
            Flavor::Bounded(q) => q.is_closed(),
            Flavor::Unbounded(q) => q.is_closed(),
        }
    }

    fn len(&self) -> usize {
        match &self.queue {
            Flavor::Bounded(q) => q.len(),
            Flavor::Unbounded(q) => q.len(),
        }
    }
}

/// Producing side of a channel. Exactly one exists per channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Consuming side of a channel. Exactly one exists per channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded SPSC channel with backpressure.
///
/// # Examples
///
/// ```
/// let (tx, rx) = fastflow::channel::bounded(8);
/// tx.send(42u32).unwrap();
/// drop(tx);
/// assert_eq!(rx.recv(), Some(42));
/// assert_eq!(rx.recv(), None); // sender dropped => end of stream
/// ```
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn bounded<T: Send>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Shared::new(Flavor::Bounded(SpscQueue::new(capacity)));
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Creates an unbounded SPSC channel (sends never block).
pub fn unbounded<T: Send>() -> (Sender<T>, Receiver<T>) {
    let shared = Shared::new(Flavor::Unbounded(UnboundedSpsc::new()));
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T: Send> Sender<T> {
    /// Sends `value`, blocking (with backoff) while the channel is full.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] with the value if the receiver was dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut value = value;
        let mut backoff = Backoff::new();
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(v)) => {
                    value = v;
                    backoff.wait();
                }
            }
        }
    }

    /// Attempts to send without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when a bounded channel has no free slot (the
    /// calling thread is then registered to be woken by the next pop);
    /// [`TrySendError::Disconnected`] when the receiver was dropped.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        if self.shared.is_closed() {
            return Err(TrySendError::Disconnected(value));
        }
        match &self.shared.queue {
            // SAFETY: single producer by construction.
            Flavor::Unbounded(q) => unsafe { q.push(value) },
            // SAFETY: single producer by construction.
            Flavor::Bounded(q) => {
                if let Err(PushError(v)) = unsafe { q.try_push(value) } {
                    self.shared.tx_waker.register();
                    return Err(TrySendError::Full(v));
                }
            }
        }
        self.shared.rx_waker.wake();
        Ok(())
    }

    /// Number of items currently queued (racy snapshot).
    ///
    /// Schedulers use this as the load estimate of the consumer.
    pub fn queued(&self) -> usize {
        self.shared.len()
    }

    /// True when the receiving side has been dropped.
    pub fn is_disconnected(&self) -> bool {
        self.shared.is_closed()
    }
}

impl<T: Send> Receiver<T> {
    /// Receives the next item, blocking (with backoff) while empty.
    ///
    /// Returns `None` once the channel is empty *and* the sender is gone:
    /// the end-of-stream mark of FastFlow.
    pub fn recv(&self) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_recv() {
                Ok(v) => return Some(v),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => backoff.wait(),
            }
        }
    }

    /// Attempts to receive without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when no item is queued yet (the calling
    /// thread is then registered to be woken by the next push);
    /// [`TryRecvError::Disconnected`] at end of stream.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.pop() {
            Some(v) => Ok(v),
            // Re-check after observing closed: the sender may have pushed
            // between our pop and its close.
            None if self.shared.is_closed() => self.pop().ok_or(TryRecvError::Disconnected),
            None => {
                self.shared.rx_waker.register();
                Err(TryRecvError::Empty)
            }
        }
    }

    /// Pops one item; a pop from a bounded queue frees a slot, so it wakes a
    /// producer blocked on the full queue.
    fn pop(&self) -> Option<T> {
        match &self.shared.queue {
            // SAFETY: `Receiver` is not Clone, so this is the only consumer.
            Flavor::Bounded(q) => {
                let item = unsafe { q.try_pop() };
                if item.is_some() {
                    self.shared.tx_waker.wake();
                }
                item
            }
            // SAFETY: as above.
            Flavor::Unbounded(q) => unsafe { q.try_pop() },
        }
    }

    /// Number of items currently queued (racy snapshot).
    pub fn queued(&self) -> usize {
        self.shared.len()
    }

    /// True when the sender is gone; items may still be queued.
    pub fn is_disconnected(&self) -> bool {
        self.shared.is_closed()
    }

    /// Iterates over items until end of stream, blocking between items.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No item available right now.
    Empty,
    /// Channel closed and drained: end of stream.
    Disconnected,
}

impl std::fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "channel is empty"),
            TryRecvError::Disconnected => write!(f, "channel is disconnected"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Blocking iterator over received items; see [`Receiver::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T: Send> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.rx.recv()
    }
}

impl<'a, T: Send> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.shared.close();
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.close();
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("queued", &self.shared.len())
            .field("closed", &self.shared.is_closed())
            .finish()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("queued", &self.shared.len())
            .field("closed", &self.shared.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_roundtrip_and_eos() {
        let (tx, rx) = bounded(4);
        tx.send(1u32).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn unbounded_roundtrip_and_eos() {
        let (tx, rx) = unbounded();
        for i in 0..2000u32 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<u32> = rx.iter().collect();
        assert_eq!(got.len(), 2000);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn try_send_reports_full_then_succeeds_after_pop() {
        let (tx, rx) = bounded(1);
        tx.try_send(1u8).unwrap();
        match tx.try_send(2) {
            Err(TrySendError::Full(2)) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(2).unwrap();
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = bounded(2);
        drop(rx);
        assert_eq!(tx.send(7u8), Err(SendError(7)));
        assert!(tx.is_disconnected());
    }

    #[test]
    fn try_recv_empty_vs_disconnected() {
        let (tx, rx) = bounded::<u8>(2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn items_sent_before_close_are_still_delivered() {
        let (tx, rx) = bounded(8);
        for i in 0..5u8 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<u8> = rx.iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn blocking_send_wakes_up_when_consumer_drains() {
        let (tx, rx) = bounded(1);
        tx.send(0u64).unwrap();
        let producer = std::thread::spawn(move || {
            // This send must block until the consumer pops.
            tx.send(1).unwrap();
        });
        std::thread::yield_now();
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        producer.join().unwrap();
    }

    #[test]
    fn queued_reflects_pending_items() {
        let (tx, rx) = bounded(8);
        tx.send(1u8).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.queued(), 2);
        assert_eq!(rx.queued(), 2);
    }

    #[test]
    fn cross_thread_stream_of_structs() {
        #[derive(Debug, PartialEq)]
        struct Item {
            id: usize,
            payload: Vec<u64>,
        }
        let (tx, rx) = bounded(16);
        let producer = std::thread::spawn(move || {
            for id in 0..1000 {
                tx.send(Item {
                    id,
                    payload: vec![id as u64; 8],
                })
                .unwrap();
            }
        });
        let mut next = 0;
        for item in rx.iter() {
            assert_eq!(item.id, next);
            assert_eq!(item.payload[0], next as u64);
            next += 1;
        }
        assert_eq!(next, 1000);
        producer.join().unwrap();
    }

    /// Waits until the receiver of `tx` has announced that it parks, then a
    /// little longer so it is parked when the next send lands.
    fn until_receiver_parks<T: Send>(tx: &Sender<T>) {
        while !crate::backoff::tests::announced(&tx.shared.rx_waker) {
            std::thread::yield_now();
        }
        let t0 = std::time::Instant::now();
        while t0.elapsed() < std::time::Duration::from_micros(20) {
            std::thread::yield_now();
        }
    }

    fn parks() -> u64 {
        crate::backoff::tests::PARKS.with(std::cell::Cell::get)
    }

    #[test]
    fn ping_pong_is_driven_by_wakeups_not_timeouts() {
        use crate::backoff::PARK_TIMEOUT;
        use std::time::Instant;
        const ROUND_TRIPS: u32 = 20_000;
        let (ping_tx, ping_rx) = bounded(1);
        let (pong_tx, pong_rx) = bounded(1);
        let t0 = Instant::now();
        let ponger = std::thread::spawn(move || {
            let before = parks();
            for i in ping_rx.iter() {
                until_receiver_parks(&pong_tx);
                pong_tx.send(i).unwrap();
            }
            parks() - before
        });
        let before = parks();
        for i in 0..ROUND_TRIPS {
            if i > 0 {
                until_receiver_parks(&ping_tx);
            }
            ping_tx.send(i).unwrap();
            assert_eq!(pong_rx.recv(), Some(i));
        }
        let pinger_parks = parks() - before;
        drop(ping_tx);
        let ponger_parks = ponger.join().unwrap();
        let elapsed = t0.elapsed();
        // Each side waits for the other to reach the park rung before it
        // sends, so both really parked, round after round.
        assert!(pinger_parks >= u64::from(ROUND_TRIPS) / 2, "{pinger_parks}");
        assert!(ponger_parks >= u64::from(ROUND_TRIPS) / 2, "{ponger_parks}");
        // Had progress waited for park timeouts, each round trip would cost
        // at least one of them; wakeups take a tiny fraction of that.
        let budget = PARK_TIMEOUT * ROUND_TRIPS / 200;
        assert!(elapsed < budget, "{elapsed:?} >= {budget:?}");
    }

    #[test]
    fn dropping_the_sender_wakes_a_parked_recv() {
        use crate::backoff::PARK_TIMEOUT;
        use std::time::{Duration, Instant};
        let (tx, rx) = bounded::<u8>(4);
        let receiver = std::thread::spawn(move || {
            let before = parks();
            let got = rx.recv();
            (got, parks() - before, Instant::now())
        });
        until_receiver_parks(&tx);
        std::thread::sleep(Duration::from_millis(20));
        let dropped = Instant::now();
        drop(tx);
        let (got, parked, returned) = receiver.join().unwrap();
        assert_eq!(got, None);
        assert!(parked >= 1, "the receiver never parked");
        let latency = returned - dropped;
        assert!(
            latency < PARK_TIMEOUT / 2,
            "woken by the timeout: {latency:?}"
        );
    }
}
