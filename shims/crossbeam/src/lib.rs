//! Offline shim for `crossbeam` (see `shims/README.md`): the
//! `deque::{Injector, Worker, Stealer, Steal}` surface used by the sweep
//! driver in `crates/experiments/src/driver.rs`. Backed by
//! mutex-protected `VecDeque`s rather than lock-free Chase-Lev deques —
//! semantically identical (FIFO local queue, stealable from the front),
//! slower under contention, which the driver's coarse jobs tolerate.

pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// A global FIFO injection queue.
    pub struct Injector<T> {
        q: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> Injector<T> {
        pub fn new() -> Self {
            Injector {
                q: Mutex::new(VecDeque::new()),
            }
        }

        pub fn push(&self, task: T) {
            self.q
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push_back(task);
        }

        pub fn is_empty(&self) -> bool {
            self.q
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .is_empty()
        }

        /// Move a batch into `dest`'s local queue and pop one element.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut q = self
                .q
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let Some(first) = q.pop_front() else {
                return Steal::Empty;
            };
            // Take up to half of what remains along with the popped item.
            let extra = q.len().div_ceil(2).min(16);
            if extra > 0 {
                let mut dest_q = dest
                    .q
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                for _ in 0..extra {
                    if let Some(t) = q.pop_front() {
                        dest_q.push_back(t);
                    }
                }
            }
            Steal::Success(first)
        }
    }

    /// A worker's local FIFO queue.
    pub struct Worker<T> {
        pub(crate) q: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        pub fn new_fifo() -> Self {
            Worker {
                q: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        pub fn push(&self, task: T) {
            self.q
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push_back(task);
        }

        pub fn pop(&self) -> Option<T> {
            self.q
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .pop_front()
        }

        pub fn is_empty(&self) -> bool {
            self.q
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .is_empty()
        }

        pub fn stealer(&self) -> Stealer<T> {
            Stealer { q: self.q.clone() }
        }
    }

    /// A handle for stealing from another worker's queue.
    pub struct Stealer<T> {
        q: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer { q: self.q.clone() }
        }
    }

    impl<T> Stealer<T> {
        pub fn steal(&self) -> Steal<T> {
            match self
                .q
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .pop_front()
            {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }
    }

    /// Outcome of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        Empty,
        Success(T),
        Retry,
    }

    impl<T> Steal<T> {
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }

        pub fn is_retry(&self) -> bool {
            matches!(self, Steal::Retry)
        }

        pub fn is_success(&self) -> bool {
            matches!(self, Steal::Success(_))
        }

        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(t) => Some(t),
                _ => None,
            }
        }

        pub fn or_else<F: FnOnce() -> Steal<T>>(self, f: F) -> Steal<T> {
            match self {
                Steal::Success(t) => Steal::Success(t),
                Steal::Retry => match f() {
                    Steal::Empty => Steal::Retry,
                    other => other,
                },
                Steal::Empty => f(),
            }
        }
    }

    /// First success wins; any retry (without a success) yields `Retry`.
    impl<T> FromIterator<Steal<T>> for Steal<T> {
        fn from_iter<I: IntoIterator<Item = Steal<T>>>(iter: I) -> Steal<T> {
            let mut retry = false;
            for s in iter {
                match s {
                    Steal::Success(t) => return Steal::Success(t),
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            if retry {
                Steal::Retry
            } else {
                Steal::Empty
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::deque::*;

    #[test]
    fn injector_feeds_worker() {
        let inj = Injector::new();
        for i in 0..10 {
            inj.push(i);
        }
        let w = Worker::new_fifo();
        assert_eq!(inj.steal_batch_and_pop(&w), Steal::Success(0));
        // A batch landed locally.
        assert!(!w.is_empty());
        let mut drained = Vec::new();
        while let Some(t) = w.pop() {
            drained.push(t);
        }
        // FIFO order preserved.
        for pair in drained.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn stealer_takes_from_worker() {
        let w = Worker::new_fifo();
        w.push(1);
        w.push(2);
        let s = w.stealer();
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(s.steal(), Steal::<i32>::Empty);
    }

    #[test]
    fn steal_collect_prefers_success() {
        let all: Steal<i32> = [Steal::Empty, Steal::Retry, Steal::Success(7)]
            .into_iter()
            .collect();
        assert_eq!(all, Steal::Success(7));
        let retry: Steal<i32> = [Steal::Empty, Steal::Retry].into_iter().collect();
        assert!(retry.is_retry());
        let empty: Steal<i32> = [Steal::<i32>::Empty].into_iter().collect();
        assert!(empty.is_empty());
    }
}
