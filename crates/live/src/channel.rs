//! A hand-rolled bounded MPSC channel (Mutex + Condvar + ring buffer).
//!
//! `std::sync::mpsc::channel` is unbounded, which the
//! `bounded-channel` lint bans in this crate for a reason: the whole
//! point of the live service is that overload becomes *visible
//! backpressure* (a blocked feeder, a counted shed, a degraded mode),
//! never silent memory growth. Capacity is fixed at construction and
//! every overflow behaviour is an explicit method:
//!
//! * [`Sender::send`] — block until space (the `block` policy),
//! * [`Sender::try_send`] — fail fast (drives `sample` degradation),
//! * [`Sender::send_dropping_oldest`] — evict the queue head (the
//!   `drop-oldest` policy), returning the victim so it can be counted
//!   and reported as a typed [`airguard_obs::ObsEvent`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Shared queue state.
#[derive(Debug)]
struct State<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receiver_alive: bool,
}

#[derive(Debug)]
struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when the queue gains an item or all senders leave.
    not_empty: Condvar,
    /// Signalled when the queue loses an item or the receiver leaves.
    not_full: Condvar,
}

/// The sending half; clone one per producer.
#[derive(Debug)]
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half.
#[derive(Debug)]
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Outcome of a bounded-wait receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeout<T> {
    /// An item arrived within the deadline.
    Item(T),
    /// Every sender is gone and the queue is drained.
    Disconnected,
    /// The deadline passed with the queue still empty.
    TimedOut,
}

/// Why a send did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The receiver was dropped; the channel can never drain.
    Disconnected,
    /// The queue is at capacity (returned by [`Sender::try_send`] and by
    /// [`Sender::send_timeout`] on timeout).
    Full,
}

/// Creates a bounded channel with room for `capacity` in-flight items
/// (floored at 1: a zero-capacity rendezvous channel would deadlock the
/// single-threaded tests and serves no policy here).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let capacity = capacity.max(1);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            senders: 1,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Acquires the state lock, recovering from a poisoned mutex: a worker
/// that panicked while holding the lock leaves a structurally intact
/// queue (all mutations are single `push`/`pop` calls), and the panic
/// itself is surfaced separately by the thread scope.
fn lock<T>(shared: &Shared<T>) -> std::sync::MutexGuard<'_, State<T>> {
    match shared.state.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl<T> Sender<T> {
    /// Blocks until the item fits (backpressure), or the receiver is
    /// gone.
    pub fn send(&self, item: T) -> Result<(), SendError> {
        let mut state = lock(&self.shared);
        loop {
            if !state.receiver_alive {
                return Err(SendError::Disconnected);
            }
            if state.queue.len() < state.capacity {
                state.queue.push_back(item);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            state = match self.shared.not_full.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Like [`Sender::send`] but gives up after `timeout` with
    /// [`SendError::Full`] — the watchdog's probe for a consumer that
    /// has stopped consuming.
    pub fn send_timeout(&self, item: T, timeout: Duration) -> Result<(), SendError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = lock(&self.shared);
        loop {
            if !state.receiver_alive {
                return Err(SendError::Disconnected);
            }
            if state.queue.len() < state.capacity {
                state.queue.push_back(item);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(SendError::Full);
            }
            state = match self.shared.not_full.wait_timeout(state, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Enqueues without blocking; [`SendError::Full`] when at capacity.
    pub fn try_send(&self, item: T) -> Result<(), SendError> {
        let mut state = lock(&self.shared);
        if !state.receiver_alive {
            return Err(SendError::Disconnected);
        }
        if state.queue.len() < state.capacity {
            state.queue.push_back(item);
            self.shared.not_empty.notify_one();
            Ok(())
        } else {
            Err(SendError::Full)
        }
    }

    /// Enqueues unconditionally, evicting the oldest queued item when at
    /// capacity. Returns the evicted item so the caller can count and
    /// report the shed — a silent drop is exactly what this crate's
    /// telemetry contract forbids.
    pub fn send_dropping_oldest(&self, item: T) -> Result<Option<T>, SendError> {
        let mut state = lock(&self.shared);
        if !state.receiver_alive {
            return Err(SendError::Disconnected);
        }
        let evicted = if state.queue.len() >= state.capacity {
            state.queue.pop_front()
        } else {
            None
        };
        state.queue.push_back(item);
        self.shared.not_empty.notify_one();
        Ok(evicted)
    }

    /// Items currently queued (a congestion probe for degraded-mode
    /// recovery; racy by nature, which is fine for a heuristic).
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.shared).queue.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock(&self.shared).senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared);
        state.senders -= 1;
        if state.senders == 0 {
            // Wake a receiver blocked on an empty queue so it can see
            // the disconnect and finish.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks for the next item; `None` once every sender is gone and
    /// the queue is drained (the clean end-of-stream signal).
    #[must_use]
    pub fn recv(&self) -> Option<T> {
        let mut state = lock(&self.shared);
        loop {
            if let Some(item) = state.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if state.senders == 0 {
                return None;
            }
            state = match self.shared.not_empty.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Like [`Receiver::recv`] but gives up after `timeout` — the
    /// checkpoint barrier's guard against a shard that never replies.
    pub fn recv_timeout(&self, timeout: Duration) -> RecvTimeout<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = lock(&self.shared);
        loop {
            if let Some(item) = state.queue.pop_front() {
                self.shared.not_full.notify_one();
                return RecvTimeout::Item(item);
            }
            if state.senders == 0 {
                return RecvTimeout::Disconnected;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return RecvTimeout::TimedOut;
            }
            state = match self.shared.not_empty.wait_timeout(state, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared);
        state.receiver_alive = false;
        drop(state);
        // Senders blocked on a full queue must observe the disconnect.
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::{bounded, SendError};
    use std::time::Duration;

    #[test]
    fn fifo_order_is_preserved() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).expect("receiver alive");
        }
        drop(tx);
        let drained: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_send_reports_full_at_capacity() {
        let (tx, _rx) = bounded(2);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Ok(()));
        assert_eq!(tx.try_send(3), Err(SendError::Full));
        assert_eq!(tx.len(), 2);
    }

    #[test]
    fn send_dropping_oldest_returns_the_victim() {
        let (tx, rx) = bounded(2);
        assert_eq!(tx.send_dropping_oldest(1), Ok(None));
        assert_eq!(tx.send_dropping_oldest(2), Ok(None));
        assert_eq!(tx.send_dropping_oldest(3), Ok(Some(1)));
        drop(tx);
        let drained: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(drained, vec![2, 3]);
    }

    #[test]
    fn recv_sees_disconnect_after_drain() {
        let (tx, rx) = bounded(2);
        tx.send(7).expect("receiver alive");
        drop(tx);
        assert_eq!(rx.recv(), Some(7));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_fails_once_receiver_is_gone() {
        let (tx, rx) = bounded(2);
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError::Disconnected));
        assert_eq!(tx.try_send(1), Err(SendError::Disconnected));
        assert_eq!(tx.send_dropping_oldest(1), Err(SendError::Disconnected));
    }

    #[test]
    fn send_timeout_times_out_on_a_stuck_consumer() {
        let (tx, _rx) = bounded(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(
            tx.send_timeout(2, Duration::from_millis(20)),
            Err(SendError::Full)
        );
    }

    #[test]
    fn recv_timeout_distinguishes_empty_from_disconnected() {
        use super::RecvTimeout;
        let (tx, rx) = bounded(2);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            RecvTimeout::TimedOut
        );
        tx.send(5).expect("receiver alive");
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            RecvTimeout::Item(5)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            RecvTimeout::Disconnected
        );
    }

    #[test]
    fn blocking_send_resumes_when_space_frees() {
        let (tx, rx) = bounded(1);
        tx.send(0).expect("receiver alive");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Blocks until the main thread drains one item.
                tx.send(1).expect("receiver alive");
            });
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(rx.recv(), Some(0));
            assert_eq!(rx.recv(), Some(1));
        });
    }

    #[test]
    fn cloned_senders_all_count_toward_disconnect() {
        let (tx, rx) = bounded(4);
        let tx2 = tx.clone();
        tx.send(1).expect("receiver alive");
        tx2.send(2).expect("receiver alive");
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }
}
