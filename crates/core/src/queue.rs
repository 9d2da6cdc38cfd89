//! The work queue behind [`BatchEngine`](crate::batch::BatchEngine)'s
//! worker pool: a `Mutex<VecDeque>` plus a `Condvar` with a close
//! operation. Closing refuses later pushes and lets the workers drain
//! what is queued.

use magshield_obs::sync::{lock, wait};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// An unbounded multi-producer, multi-consumer FIFO with close.
pub(crate) struct WorkQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> WorkQueue<T> {
    /// An open, empty queue.
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Appends `item`, waking one waiting worker; hands it back once the
    /// queue is closed.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        let mut st = lock(&self.state);
        if st.closed {
            return Err(item);
        }
        st.items.push_back(item);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// The oldest item, blocking while the queue is open and empty;
    /// `None` once it is closed and empty.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut st = lock(&self.state);
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = wait(&self.ready, st);
        }
    }

    /// Refuses further pushes and wakes every worker; the queued items
    /// stay for the workers to drain.
    pub(crate) fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_then_drain_after_close() {
        let q = WorkQueue::new();
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3));
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(1), Some(2), None));
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(WorkQueue::<u8>::new());
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.push(7).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        let mut got: Vec<_> = workers.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(7)]);
    }
}
