//! Model-checked synchronization primitives: `Mutex` and a sequentially
//! consistent `AtomicBool`. Every acquire, release, load, and store is a
//! scheduling point, so the explorer can interleave other threads there.

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use crate::rt::{current, ObjState, Op, Outcome, Runtime};

/// A mutex whose lock/unlock points the explorer schedules around. The
/// payload lives in a real `std` mutex, which is never contended: the
/// scheduler only ever grants the lock to one thread at a time.
pub struct Mutex<T> {
    rt: Arc<Runtime>,
    id: usize,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        let (rt, _) = current();
        let id = rt.register_object(ObjState::Lock { held: false });
        Mutex {
            rt,
            id,
            inner: StdMutex::new(value),
        }
    }

    /// Acquires the lock, blocking (in model time) until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (_, me) = current();
        let outcome = self.rt.sched_point(me, Op::Lock(self.id));
        let inner = if outcome == Outcome::Abort {
            // Tear-down: the model lock state is no longer authoritative,
            // so don't risk blocking. Guard derefs will panic (suppressed).
            self.inner.try_lock().ok()
        } else {
            match self.inner.try_lock() {
                Ok(g) => Some(g),
                Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
                Err(std::sync::TryLockError::WouldBlock) => {
                    unreachable!("scheduler granted a held lock")
                }
            }
        };
        MutexGuard {
            rt: &self.rt,
            id: self.id,
            inner,
        }
    }
}

/// RAII guard; releasing is itself a scheduling point.
pub struct MutexGuard<'a, T> {
    rt: &'a Arc<Runtime>,
    id: usize,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_deref()
            .expect("lock aborted during tear-down")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .expect("lock aborted during tear-down")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            let (_, me) = current();
            let _ = self.rt.sched_point(me, Op::Unlock(self.id));
        }
    }
}

pub mod atomic {
    //! Sequentially consistent model atomics. Orderings are accepted for
    //! API familiarity but the checker serializes everything anyway.

    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use crate::rt::{current, ObjState, Op, Runtime};

    /// A model `AtomicBool`: every load and store is a scheduling point.
    pub struct AtomicBool {
        rt: Arc<Runtime>,
        id: usize,
        cell: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        pub fn new(v: bool) -> Self {
            let (rt, _) = current();
            let id = rt.register_object(ObjState::Atomic);
            AtomicBool {
                rt,
                id,
                cell: std::sync::atomic::AtomicBool::new(v),
            }
        }

        pub fn load(&self, _order: Ordering) -> bool {
            let (_, me) = current();
            let _ = self.rt.sched_point(me, Op::AtLoad(self.id));
            self.cell.load(Ordering::SeqCst)
        }

        pub fn store(&self, v: bool, _order: Ordering) {
            let (_, me) = current();
            let _ = self.rt.sched_point(me, Op::AtStore(self.id));
            self.cell.store(v, Ordering::SeqCst);
        }
    }
}
