//! A bounded FIFO job queue with explicit backpressure.
//!
//! Producers never block: [`JobQueue::try_push`] fails immediately with
//! [`PushError::Full`] when the queue is at capacity, which the HTTP
//! layer maps to `429 Too Many Requests` + `Retry-After`. Rejecting at
//! admission keeps memory bounded under overload instead of queueing
//! unboundedly. Consumers block in [`JobQueue::pop_blocking`]; closing
//! the queue lets them drain everything already admitted and then exit
//! — the graceful-shutdown contract.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; retry later.
    Full,
    /// The queue was closed (service shutting down).
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer multi-consumer FIFO.
pub struct JobQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    added: Condvar,
}

impl<T> JobQueue<T> {
    /// Creates a queue admitting at most `capacity` pending items.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            capacity,
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            added: Condvar::new(),
        }
    }

    /// Admits `item` unless the queue is full or closed. Never blocks.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](JobQueue::close).
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        self.added.notify_one();
        Ok(())
    }

    /// Admits `item` even past capacity. Crash-recovery replay uses
    /// this: a job the store already acknowledged must never be
    /// dropped for backpressure, so startup may transiently overfill
    /// the queue (new submissions still see [`PushError::Full`] until
    /// the backlog drains).
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] after [`close`](JobQueue::close).
    pub fn push_unbounded(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(PushError::Closed);
        }
        inner.items.push_back(item);
        self.added.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` signals the consumer to exit.
    pub fn pop_blocking(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.added.wait(inner).expect("queue lock");
        }
    }

    /// Closes the queue: future pushes fail, consumers drain the
    /// backlog and then receive `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.closed = true;
        self.added.notify_all();
    }

    /// Items currently waiting (excludes jobs already being executed).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Admission limit.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let q = JobQueue::new(8);
        for i in 0..5 {
            q.try_push(i).expect("fits");
        }
        assert_eq!(q.depth(), 5);
        for i in 0..5 {
            assert_eq!(q.pop_blocking(), Some(i));
        }
    }

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let q = JobQueue::new(2);
        q.try_push(1).expect("fits");
        q.try_push(2).expect("fits");
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.pop_blocking(), Some(1));
        q.try_push(3).expect("space freed");
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = JobQueue::new(4);
        q.try_push("a").expect("fits");
        q.close();
        assert_eq!(q.try_push("b"), Err(PushError::Closed));
        assert_eq!(q.pop_blocking(), Some("a"), "backlog drains after close");
        assert_eq!(q.pop_blocking(), None, "then consumers are released");
    }

    #[test]
    fn unbounded_push_ignores_capacity_but_not_close() {
        let q = JobQueue::new(1);
        q.try_push(1).expect("fits");
        assert_eq!(q.try_push(2), Err(PushError::Full));
        q.push_unbounded(2).expect("recovery push overfills");
        q.push_unbounded(3).expect("recovery push overfills");
        assert_eq!(q.depth(), 3);
        assert_eq!(q.pop_blocking(), Some(1), "FIFO order still holds");
        q.close();
        assert_eq!(q.push_unbounded(4), Err(PushError::Closed));
    }

    #[test]
    fn blocked_consumer_wakes_on_push() {
        let q = std::sync::Arc::new(JobQueue::new(1));
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_blocking());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(42).expect("fits");
        assert_eq!(h.join().expect("no panic"), Some(42));
    }
}
