//! Bounded single-producer/single-consumer channels.
//!
//! The banked LLC ([`BankedLlc`](crate::BankedLlc)), when built with more
//! than one job, streams per-bank request batches from the producing thread
//! to one worker per bank group. Each worker gets its own channel, so the
//! queues are strictly SPSC; the bound applies
//! backpressure when a worker falls behind, keeping the number of in-flight
//! batches (and therefore memory) constant.
//!
//! The implementation is a `Mutex<VecDeque>` + two `Condvar`s — boring on
//! purpose: batches are coarse (thousands of requests), so queue operations
//! are far off the hot path and lock-free cleverness would buy nothing.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

struct State<T> {
    buf: VecDeque<T>,
    /// Set when either endpoint is dropped; wakes the other side.
    closed: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
}

/// The sending half of a bounded SPSC channel.
pub struct Sender<T> {
    ch: Arc<Shared<T>>,
}

/// The receiving half of a bounded SPSC channel.
pub struct Receiver<T> {
    ch: Arc<Shared<T>>,
}

/// Creates a bounded SPSC channel holding at most `cap` in-flight items.
///
/// # Panics
///
/// Panics if `cap` is zero (a zero-capacity rendezvous is never what the
/// batching engine wants and would deadlock a same-thread send).
pub fn channel<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "spsc channel capacity must be non-zero");
    let ch = Arc::new(Shared {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(cap),
            closed: false,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        cap,
    });
    (Sender { ch: ch.clone() }, Receiver { ch })
}

impl<T> Sender<T> {
    /// Sends `v`, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(v)` if the receiver has been dropped.
    pub fn send(&self, v: T) -> Result<(), T> {
        let mut st = self.ch.state.lock().expect("spsc lock poisoned");
        loop {
            if st.closed {
                return Err(v);
            }
            if st.buf.len() < self.ch.cap {
                st.buf.push_back(v);
                self.ch.not_empty.notify_one();
                return Ok(());
            }
            st = self.ch.not_full.wait(st).expect("spsc lock poisoned");
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.ch.state.lock().expect("spsc lock poisoned");
        st.closed = true;
        // Queued items remain receivable; the receiver drains then sees EOF.
        self.ch.not_empty.notify_one();
    }
}

impl<T> Receiver<T> {
    /// Receives the next item, blocking while the queue is empty.
    ///
    /// Returns `None` once the sender has been dropped *and* the queue is
    /// drained — the clean end-of-stream signal workers terminate on.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.ch.state.lock().expect("spsc lock poisoned");
        loop {
            if let Some(v) = st.buf.pop_front() {
                self.ch.not_full.notify_one();
                return Some(v);
            }
            if st.closed {
                return None;
            }
            st = self.ch.not_empty.wait(st).expect("spsc lock poisoned");
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.ch.state.lock().expect("spsc lock poisoned");
        st.closed = true;
        self.ch.not_full.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = channel(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv(), Some(i));
        }
    }

    #[test]
    fn eof_after_sender_drop() {
        let (tx, rx) = channel::<u32>(2);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(7), "queued items survive sender drop");
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None, "EOF is sticky");
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel(2);
        drop(rx);
        assert_eq!(tx.send(1), Err(1));
    }

    #[test]
    fn bounded_send_applies_backpressure() {
        let (tx, rx) = channel(2);
        let producer = std::thread::spawn(move || {
            for i in 0..100u32 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = channel::<u32>(0);
    }
}
