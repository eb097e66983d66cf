//! Vendored stand-in for the [`polling`](https://crates.io/crates/polling)
//! crate (the build environment has no registry access).
//!
//! Only the API this workspace uses is provided: a level-triggered
//! [`Poller`] multiplexing readiness over raw file descriptors, backed by
//! the POSIX `poll(2)` system call via a thin `extern "C"` declaration (no
//! `libc` dependency). The server workspace forbids `unsafe` code, so the
//! single `unsafe` FFI call lives here, behind a safe interface.
//!
//! Unix only: on other targets the crate is empty.

#![cfg(unix)]
#![deny(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::time::{Duration, Instant};

pub use std::os::fd::RawFd;

/// Readiness interest for a registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable (or hits EOF/error).
    pub readable: bool,
    /// Wake when the descriptor becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Interest in readability only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Interest in writability only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Interest in both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// No interest — the descriptor stays registered but never wakes the
    /// poller (errors/hangups are still reported, as `poll(2)` mandates).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// A readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen key passed to [`Poller::register`].
    pub key: usize,
    /// The descriptor is readable, at EOF, or in an error state.
    pub readable: bool,
    /// The descriptor is writable or in an error state.
    pub writable: bool,
}

// `struct pollfd` from <poll.h>. The short flag values below are
// identical across Linux, the BSDs, and macOS.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

// nfds_t is `unsigned long` on Linux/Android (so 32-bit on 32-bit
// targets) and `unsigned int` on the BSD family (including macOS).
#[cfg(any(target_os = "linux", target_os = "android"))]
type NFds = core::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NFds = core::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
}

fn interest_to_events(interest: Interest) -> i16 {
    let mut ev = 0;
    if interest.readable {
        ev |= POLLIN;
    }
    if interest.writable {
        ev |= POLLOUT;
    }
    ev
}

/// A level-triggered readiness poller over raw file descriptors.
///
/// Register descriptors under caller-chosen `usize` keys, then call
/// [`Poller::wait`] to block until at least one registered descriptor
/// matches its [`Interest`] (or the timeout lapses). Level-triggered
/// semantics: a descriptor that stays ready is reported on every wait, so
/// callers never need to drain-to-`WouldBlock` to re-arm.
///
/// Internally a dense `pollfd` array plus a key→slot map; removal is
/// `swap_remove` so both stay O(1) per operation and the array stays
/// contiguous for the kernel.
pub struct Poller {
    fds: Vec<PollFd>,
    keys: Vec<usize>,
    slots: HashMap<usize, usize>,
}

impl fmt::Debug for Poller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Poller")
            .field("registered", &self.len())
            .finish()
    }
}

impl Poller {
    /// Creates an empty poller.
    ///
    /// # Errors
    /// Never fails today; the `Result` matches the published crate.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            fds: Vec::new(),
            keys: Vec::new(),
            slots: HashMap::new(),
        })
    }

    /// Registers `fd` under `key` with the given interest.
    ///
    /// The caller keeps ownership of the descriptor and must keep it open
    /// until [`Poller::deregister`]; the poller never closes descriptors.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::AlreadyExists`] if `key` is already registered.
    pub fn register(&mut self, fd: RawFd, key: usize, interest: Interest) -> io::Result<()> {
        if self.slots.contains_key(&key) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("key {key} already registered"),
            ));
        }
        self.slots.insert(key, self.fds.len());
        self.fds.push(PollFd {
            fd,
            events: interest_to_events(interest),
            revents: 0,
        });
        self.keys.push(key);
        Ok(())
    }

    /// Replaces the interest set for an already-registered `key`.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::NotFound`] if `key` is not registered.
    pub fn modify(&mut self, key: usize, interest: Interest) -> io::Result<()> {
        let slot = *self.slots.get(&key).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("key {key} not registered"))
        })?;
        self.fds[slot].events = interest_to_events(interest);
        Ok(())
    }

    /// Removes `key` from the poll set. The descriptor itself is untouched.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::NotFound`] if `key` is not registered.
    pub fn deregister(&mut self, key: usize) -> io::Result<()> {
        let slot = self.slots.remove(&key).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("key {key} not registered"))
        })?;
        self.fds.swap_remove(slot);
        self.keys.swap_remove(slot);
        if slot < self.fds.len() {
            self.slots.insert(self.keys[slot], slot);
        }
        Ok(())
    }

    /// Number of currently registered descriptors.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// True when no descriptors are registered.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Blocks until a registered descriptor is ready or `timeout` lapses.
    ///
    /// `events` is cleared and refilled; the return value is the number of
    /// ready descriptors (0 on timeout). `None` waits indefinitely.
    /// `EINTR` is retried internally with the remaining budget.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let millis = match deadline {
                None => -1,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    // Round up so sub-millisecond remainders park in the
                    // kernel instead of spinning.
                    i32::try_from(left.as_millis())
                        .unwrap_or(i32::MAX)
                        .max(if left.is_zero() { 0 } else { 1 })
                }
            };
            // SAFETY: `fds` is a live, contiguous `#[repr(C)]` array and
            // `len` matches it; `poll` only writes the `revents` fields.
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NFds, millis) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            if rc == 0 && millis != 0 && deadline.is_some_and(|d| Instant::now() < d) {
                // Spurious early return; keep waiting out the budget.
                continue;
            }
            for (pfd, &key) in self.fds.iter().zip(&self.keys) {
                let re = pfd.revents;
                if re == 0 {
                    continue;
                }
                // Error/hangup conditions are surfaced as ready in both
                // directions so the caller's next read/write observes the
                // failure directly.
                let broken = re & (POLLERR | POLLHUP | POLLNVAL) != 0;
                events.push(Event {
                    key,
                    readable: re & POLLIN != 0 || broken,
                    writable: re & POLLOUT != 0 || broken,
                });
            }
            return Ok(events.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn readable_event_fires_after_write() {
        let (a, mut b) = pair();
        let mut poller = Poller::new().unwrap();
        poller
            .register(a.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        // Nothing written yet: a short wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        b.write_all(b"x").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].key, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn level_triggered_until_drained() {
        let (mut a, mut b) = pair();
        let mut poller = Poller::new().unwrap();
        poller
            .register(a.as_raw_fd(), 1, Interest::READABLE)
            .unwrap();
        b.write_all(b"yz").unwrap();

        let mut events = Vec::new();
        for _ in 0..2 {
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "undrained data must re-report (level-triggered)");
        }
        let mut buf = [0u8; 8];
        let got = a.read(&mut buf).unwrap();
        assert_eq!(got, 2);
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "drained socket must stop reporting");
    }

    #[test]
    fn writable_interest_and_modify() {
        let (a, _b) = pair();
        let mut poller = Poller::new().unwrap();
        // A fresh socket with an empty send buffer is immediately writable.
        poller
            .register(a.as_raw_fd(), 3, Interest::WRITABLE)
            .unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable);

        // Dropping interest silences it.
        poller.modify(3, Interest::NONE).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn hangup_reports_ready() {
        let (a, b) = pair();
        let mut poller = Poller::new().unwrap();
        poller
            .register(a.as_raw_fd(), 9, Interest::READABLE)
            .unwrap();
        drop(b);
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable, "peer hangup must surface as readable");
    }

    #[test]
    fn registry_bookkeeping() {
        let (a, b) = pair();
        let mut poller = Poller::new().unwrap();
        assert!(poller.is_empty());
        poller
            .register(a.as_raw_fd(), 1, Interest::READABLE)
            .unwrap();
        poller
            .register(b.as_raw_fd(), 2, Interest::READABLE)
            .unwrap();
        assert_eq!(poller.len(), 2);
        assert_eq!(
            poller
                .register(a.as_raw_fd(), 1, Interest::READABLE)
                .unwrap_err()
                .kind(),
            std::io::ErrorKind::AlreadyExists
        );
        poller.deregister(1).unwrap();
        assert_eq!(poller.len(), 1);
        assert_eq!(
            poller.deregister(1).unwrap_err().kind(),
            std::io::ErrorKind::NotFound
        );
        assert_eq!(
            poller.modify(1, Interest::NONE).unwrap_err().kind(),
            std::io::ErrorKind::NotFound
        );
        // Key 2 must have survived the swap_remove shuffle.
        poller.modify(2, Interest::BOTH).unwrap();
    }

    #[test]
    fn timeout_is_honoured() {
        let (a, _b) = pair();
        let mut poller = Poller::new().unwrap();
        poller
            .register(a.as_raw_fd(), 4, Interest::READABLE)
            .unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(40)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(
            start.elapsed() >= Duration::from_millis(35),
            "wait returned {}ms early",
            40u128.saturating_sub(start.elapsed().as_millis())
        );
    }
}
