//! Synchronization shim for the workspace's concurrency core.
//!
//! Every lock, condvar, atomic, channel, and thread spawn used by code that
//! the loom model checker needs to see goes through this crate. Two
//! backends, switched by the `loom` cargo feature:
//!
//! - **default**: thin std-backed primitives (poison-recovering,
//!   `lock() -> guard` API with no `Result`) with zero abstraction cost;
//! - **`--features loom`**: the vendored loom stand-in, whose scheduler
//!   serializes threads and exhaustively explores interleavings inside
//!   `loom::model(..)` runs (and degrades to std behavior outside them).
//!
//! The crate also hosts the [`AUDIT`] switch for the `debug-invariants`
//! feature: [`audit!`] blocks compile to nothing when the feature is off
//! (the condition is `const`, so the optimizer deletes the block), letting
//! hot paths carry heavyweight invariant checks at zero release cost.

#[cfg(not(feature = "loom"))]
mod imp {
    use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

    /// Mutual exclusion whose `lock()` returns the guard directly. A panic while the lock is held does not poison it —
    /// the next locker sees the data as the panicking thread left it, which
    /// is what every use in this workspace wants (counters, queues with
    /// their own ledgers).
    pub struct Mutex<T> {
        inner: StdMutex<T>,
    }

    /// RAII guard of [`Mutex::lock`]; releases on drop.
    pub struct MutexGuard<'a, T> {
        // `Option` so `Condvar::wait` can hand the std guard to the OS wait
        // and reinstall the reacquired one; never `None` outside `wait`.
        inner: Option<StdMutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        pub const fn new(t: T) -> Self {
            Mutex {
                inner: StdMutex::new(t),
            }
        }

        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard {
                inner: Some(self.inner.lock().unwrap_or_else(|p| p.into_inner())),
            }
        }

        pub fn into_inner(self) -> T {
            self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // gmp:allow-panic — `inner` is only `None` transiently inside
            // `Condvar::wait*`, which holds the guard by `&mut`.
            self.inner.as_ref().expect("guard holds the lock")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // gmp:allow-panic — see `Deref`.
            self.inner.as_mut().expect("guard holds the lock")
        }
    }

    /// Condition variable taking guards by `&mut`.
    pub struct Condvar {
        inner: StdCondvar,
    }

    impl Condvar {
        pub const fn new() -> Self {
            Condvar {
                inner: StdCondvar::new(),
            }
        }

        /// Block until notified, releasing the guarded mutex while waiting.
        /// Subject to spurious wakeups: always re-check the predicate.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            // gmp:allow-panic — guard invariant, see `MutexGuard::deref`.
            let inner = guard.inner.take().expect("guard holds the lock");
            guard.inner = Some(self.inner.wait(inner).unwrap_or_else(|p| p.into_inner()));
        }

        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    impl Default for Condvar {
        fn default() -> Self {
            Condvar::new()
        }
    }
}

#[cfg(feature = "loom")]
mod imp {
    pub use loom::sync::{Condvar, Mutex, MutexGuard};
}

pub use imp::{Condvar, Mutex, MutexGuard};

pub mod atomic {
    //! Atomics routed through the active backend. Orderings are honored by
    //! the std backend and collapsed to `SeqCst` by the loom backend (the
    //! model explores interleavings, not weak memory).
    #[cfg(feature = "loom")]
    pub use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
    #[cfg(not(feature = "loom"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};

    pub use std::sync::atomic::Ordering;
}

pub mod thread {
    //! Thread spawn/join routed through the active backend. Threads that
    //! touch shim primitives inside a `loom::model` run **must** be spawned
    //! through here, or the model's scheduler cannot see them.
    #[cfg(feature = "loom")]
    pub use loom::thread::{spawn, yield_now, JoinHandle};
    #[cfg(not(feature = "loom"))]
    pub use std::thread::{spawn, yield_now, JoinHandle};

    /// Spawn a named thread. Under the loom backend the name is ignored
    /// (the model names controlled threads itself) and spawning is
    /// infallible; the `Result` shape is kept so call sites handle the
    /// std-mode OS failure without panicking.
    pub fn spawn_named<F, T>(name: &str, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        #[cfg(feature = "loom")]
        {
            let _ = name;
            Ok(spawn(f))
        }
        #[cfg(not(feature = "loom"))]
        {
            std::thread::Builder::new().name(name.to_string()).spawn(f)
        }
    }
}

pub mod channel;

/// `true` iff the `debug-invariants` feature is enabled. `const`, so
/// `if AUDIT { .. }` blocks vanish entirely from release builds.
pub const AUDIT: bool = cfg!(feature = "debug-invariants");

/// Run an invariant audit only under `--features debug-invariants`.
///
/// The body is always type-checked but const-folded away when the feature
/// is off, so audits can be arbitrarily expensive without taxing release
/// hot paths. Audits report violations by panicking — they guard internal
/// invariants, not user input.
///
/// ```
/// let xs = [1.0, 2.0];
/// gmp_sync::audit!({
///     assert!(xs.iter().all(|v: &f64| v.is_finite()), "non-finite value");
/// });
/// ```
#[macro_export]
macro_rules! audit {
    ($($body:tt)*) => {
        if $crate::AUDIT {
            $($body)*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let m = Mutex::new(0usize);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 41);
        assert_eq!(m.into_inner(), 41);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let shared = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = std::sync::Arc::clone(&shared);
        let waiter = thread::spawn_named("waiter", move || {
            let (m, cv) = &*s2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        })
        .expect("spawn");
        {
            let (m, cv) = &*shared;
            *m.lock() = true;
            cv.notify_all();
        }
        waiter.join().expect("join");
    }

    #[test]
    fn audit_const_is_feature_bound() {
        assert_eq!(AUDIT, cfg!(feature = "debug-invariants"));
        let mut ran = false;
        audit!({
            ran = true;
        });
        assert_eq!(ran, AUDIT);
    }
}
