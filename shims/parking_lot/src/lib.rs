//! Vendored stand-in for the [`parking_lot`](https://crates.io/crates/parking_lot)
//! crate (the build environment has no registry access).
//!
//! Only the API this workspace uses is provided: [`Mutex`] with a `const`
//! constructor, a poison-free [`Mutex::lock`] and a poison-free
//! [`Mutex::try_lock`]. It is a thin wrapper over
//! [`std::sync::Mutex`] that ignores std's poisoning: like real
//! `parking_lot`, a panic while the lock is held leaves it usable and later
//! callers simply see the value as the panicking holder left it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::{Mutex as StdMutex, MutexGuard, TryLockError};

/// A mutual-exclusion primitive with `parking_lot`'s panic-free `lock()`
/// signature, backed by [`std::sync::Mutex`].
#[derive(Debug, Default)]
pub struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`; usable in `static` items.
    pub const fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    /// Acquires the mutex, blocking until it is available.
    ///
    /// Std's poisoning is deliberately ignored (`parking_lot` has no
    /// poisoning): if a previous holder panicked, the value is returned as
    /// that holder left it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the mutex if no one holds it, without blocking: `None`
    /// while another guard is alive.
    ///
    /// Poison-free like [`lock`](Mutex::lock): after a holder panicked,
    /// the value is returned as that holder left it.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::Mutex;

    static GLOBAL: Mutex<i32> = Mutex::new(7);

    #[test]
    fn static_const_new_and_lock() {
        assert_eq!(*GLOBAL.lock(), 7);
        *GLOBAL.lock() += 1;
        assert_eq!(*GLOBAL.lock(), 8);
    }

    #[test]
    fn try_lock_fails_only_while_held() {
        let mutex = Mutex::new(1);
        {
            let _held = mutex.lock();
            assert!(mutex.try_lock().is_none(), "held: no second guard");
        }
        *mutex.try_lock().expect("free: a guard") += 1;
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = mutex.lock();
                panic!("holder panics");
            })
            .join()
            .is_err()
        });
        assert!(panicked);
        let guard = mutex.try_lock().expect("a panicked holder poisons nothing");
        assert_eq!(*guard, 2);
    }
}
