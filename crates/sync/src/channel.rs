//! Bounded MPMC channel built on the shim's [`Mutex`]/[`Condvar`], so loom
//! can model it. API mirrors the bounded `std::sync::mpsc` channel, with
//! cloneable receivers, plus [`Sender::close`]/[`Receiver::close`]: an explicit, idempotent
//! end-of-stream that fails further sends but lets receivers **drain** what
//! is already queued — the primitive behind the serve queue's
//! "stop admitting, serve everything admitted" shutdown contract.
//!
//! Disconnection rules (checked in this order by every operation):
//! - closed, or peer side fully dropped → `Disconnected` for senders;
//! - receivers see `Disconnected` only once the queue is also empty, so no
//!   accepted item is ever silently lost.

use crate::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Create a bounded channel of capacity `cap` (≥ 1; rendezvous channels are
/// not supported).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap >= 1, "bounded channel capacity must be at least 1");
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(cap),
            cap,
            senders: 1,
            receivers: 1,
            closed: false,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

struct State<T> {
    queue: VecDeque<T>,
    cap: usize,
    senders: usize,
    receivers: usize,
    closed: bool,
}

impl<T> State<T> {
    fn send_dead(&self) -> bool {
        self.closed || self.receivers == 0
    }

    fn recv_dead(&self) -> bool {
        self.queue.is_empty() && (self.closed || self.senders == 0)
    }
}

struct Chan<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Chan<T> {
    /// Mark the stream over: senders fail fast, receivers drain then stop.
    fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Sending half; cloneable.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Receiving half; cloneable.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity.
    Full(T),
    /// The channel is closed or all receivers are gone.
    Disconnected(T),
}

#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

impl<T> Sender<T> {
    /// Non-blocking send: [`TrySendError::Full`] is the backpressure signal.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.chan.state.lock();
        if st.send_dead() {
            return Err(TrySendError::Disconnected(value));
        }
        if st.queue.len() >= st.cap {
            return Err(TrySendError::Full(value));
        }
        st.queue.push_back(value);
        drop(st);
        self.chan.not_empty.notify_one();
        Ok(())
    }

    /// Blocking send; fails only when the channel dies.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.chan.state.lock();
        loop {
            if st.send_dead() {
                return Err(SendError(value));
            }
            if st.queue.len() < st.cap {
                st.queue.push_back(value);
                drop(st);
                self.chan.not_empty.notify_one();
                return Ok(());
            }
            self.chan.not_full.wait(&mut st);
        }
    }

    /// Queued item count.
    pub fn len(&self) -> usize {
        self.chan.state.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the channel: concurrent and future sends fail with
    /// `Disconnected`, receivers drain the queue and then disconnect.
    /// Idempotent.
    pub fn close(&self) {
        self.chan.close();
    }
}

impl<T> Receiver<T> {
    /// Blocking receive; `Err` only when the channel is dead **and**
    /// drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.chan.state.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.chan.not_full.notify_one();
                return Ok(v);
            }
            if st.recv_dead() {
                return Err(RecvError);
            }
            self.chan.not_empty.wait(&mut st);
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.chan.state.lock();
        if let Some(v) = st.queue.pop_front() {
            drop(st);
            self.chan.not_full.notify_one();
            return Ok(v);
        }
        if st.recv_dead() {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Queued item count.
    pub fn len(&self) -> usize {
        self.chan.state.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// See [`Sender::close`].
    pub fn close(&self) {
        self.chan.close();
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().senders += 1;
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock();
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            // Blocked receivers must wake to observe the disconnect.
            self.chan.not_empty.notify_all();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().receivers += 1;
        Receiver {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock();
        st.receivers -= 1;
        let last = st.receivers == 0;
        drop(st);
        if last {
            // Blocked senders must wake to observe the disconnect.
            self.chan.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_send_full_and_drain() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn close_fails_sends_but_drains_receives() {
        let (tx, rx) = bounded(4);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        tx.close();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Disconnected(3))));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn sender_drop_disconnects_after_drain() {
        let (tx, rx) = bounded(4);
        tx.try_send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn receiver_drop_disconnects_senders() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert!(matches!(tx.try_send(1), Err(TrySendError::Disconnected(1))));
        assert!(matches!(tx.send(2), Err(SendError(2))));
    }

    #[test]
    fn blocking_send_recv_across_threads() {
        let (tx, rx) = bounded(1);
        let producer = crate::thread::spawn_named("producer", move || {
            for i in 0..64 {
                tx.send(i).expect("receiver alive");
            }
        })
        .expect("spawn");
        let got: Vec<u32> = std::iter::from_fn(|| rx.recv().ok()).collect();
        producer.join().expect("join");
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn cloned_endpoints_share_counts() {
        let (tx, rx) = bounded(8);
        let tx2 = tx.clone();
        drop(tx);
        tx2.try_send(1).unwrap();
        assert_eq!(rx.len(), 1);
        let rx2 = rx.clone();
        drop(rx);
        assert_eq!(rx2.recv(), Ok(1));
        drop(tx2);
        assert_eq!(rx2.recv(), Err(RecvError));
    }
}
