//! Admission control: a bounded MPMC queue with typed load-shedding.
//!
//! The accept loop pushes admitted connections; worker threads pop them.
//! The queue never blocks producers and never grows past its capacity —
//! when it is full, [`BoundedQueue::try_push`] hands the item straight
//! back so the caller can shed it with a typed `overloaded` response
//! instead of buffering unbounded memory. Every admitted item carries its
//! enqueue instant, so the request budget can charge queue wait (see
//! `remaining_budget` in the server module).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

struct State<T> {
    items: VecDeque<(T, Instant)>,
    closed: bool,
}

/// A bounded FIFO handing each popped item back with its enqueue instant.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    takeable: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `cap` waiting items (`cap = 0` sheds
    /// every push — useful to pin the overload path in tests).
    pub fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            takeable: Condvar::new(),
            cap,
        }
    }

    /// Admits `item`, stamping its enqueue instant. Returns `Err(item)`
    /// when the queue is full or closed — the caller owns the shed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.closed || st.items.len() >= self.cap {
            return Err(item);
        }
        st.items.push_back((item, Instant::now()));
        drop(st);
        self.takeable.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (FIFO) or the queue is closed
    /// and empty (`None` — the worker-exit signal).
    pub fn pop(&self) -> Option<(T, Instant)> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(pair) = st.items.pop_front() {
                return Some(pair);
            }
            if st.closed {
                return None;
            }
            st = self.takeable.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pending items stay poppable, new pushes shed,
    /// and blocked poppers wake (returning `None` once drained).
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        drop(st);
        self.takeable.notify_all();
    }

    /// Removes and returns everything still queued (the drain-deadline
    /// path sheds these with a typed `shutting-down` response).
    pub fn drain_pending(&self) -> Vec<(T, Instant)> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.items.drain(..).collect()
    }

    /// Number of items currently waiting.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).items.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sheds_when_full_and_preserves_fifo_order() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        // Full: the item comes straight back — typed shedding, no buffering.
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(v, _)| v), Some(1));
        assert!(q.try_push(4).is_ok());
        assert_eq!(q.pop().map(|(v, _)| v), Some(2));
        assert_eq!(q.pop().map(|(v, _)| v), Some(4));
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.try_push("x"), Err("x"));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.try_push(10).ok();
        q.close();
        // Post-close pushes shed; pending items remain poppable.
        assert_eq!(q.try_push(11), Err(11));
        assert_eq!(q.pop().map(|(v, _)| v), Some(10));
        assert_eq!(q.pop().map(|(v, _)| v), None);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = std::sync::Arc::new(BoundedQueue::<u32>::new(1));
        let q2 = q.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "the popper must block on a thread of its own while the test closes the queue"
        )]
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().ok().flatten(), None);
    }

    #[test]
    fn pop_reports_the_enqueue_instant() {
        let q = BoundedQueue::new(1);
        let before = Instant::now();
        q.try_push(7).ok();
        std::thread::sleep(Duration::from_millis(15));
        let (v, enqueued) = q.pop().expect("item queued");
        assert_eq!(v, 7);
        // The stamp is the *enqueue* time, not the pop time: queue wait
        // is visible to (and charged against) the request budget.
        assert!(enqueued >= before);
        assert!(enqueued.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn drain_pending_empties_the_queue() {
        let q = BoundedQueue::new(8);
        for i in 0..3 {
            q.try_push(i).ok();
        }
        let drained: Vec<i32> = q.drain_pending().into_iter().map(|(v, _)| v).collect();
        assert_eq!(drained, vec![0, 1, 2]);
        assert!(q.is_empty());
    }
}
