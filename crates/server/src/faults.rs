//! Deterministic fault injection for the wire layer.
//!
//! A [`FaultPlan`] is a schedule of transport faults pinned to absolute
//! byte offsets of the read and write directions: stall the next read for
//! a while, delay a write, tear a write short and sever, or disconnect
//! outright once N bytes have moved. Wrapping a stream in
//! [`FaultPlan::wrap`] yields a [`FaultyStream`] that behaves exactly like
//! the inner stream except at those chosen boundaries — so a chaos test
//! can place a disconnect *mid-frame* (offset inside a frame's byte range)
//! or *between* frames (offset on a frame boundary) and replay the exact
//! same failure on every run.
//!
//! Determinism is the point: [`FaultPlan::seeded`] derives the schedule
//! from a seed via the workspace's own seeded RNG, so a chaos-battery
//! failure reproduces from its seed alone, and CI shrinkage is trivial
//! (re-run with the printed seed). Sleeps are real `thread::sleep`s kept
//! short by construction; severing goes through the [`Severable`] trait so
//! the harness can cut a `TcpStream` at the kernel level (RST-like) rather
//! than merely returning errors.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use rand::SeedableRng;

/// Transports that can be forcibly cut below the `Read`/`Write` interface.
pub trait Severable {
    /// Cuts the transport: subsequent reads and writes on *either* half
    /// fail. Idempotent.
    fn sever(&mut self);
}

impl Severable for TcpStream {
    fn sever(&mut self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

/// One scheduled fault, pinned to an absolute byte offset in one
/// direction of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Sleep `for_ms` before servicing the read that crosses read-offset
    /// `at_byte` — a peer that goes quiet mid-frame.
    StallRead {
        /// Read-direction byte offset that triggers the stall.
        at_byte: u64,
        /// Stall duration, milliseconds.
        for_ms: u64,
    },
    /// Sleep `for_ms` before servicing the write that crosses
    /// write-offset `at_byte` — a delayed response.
    DelayWrite {
        /// Write-direction byte offset that triggers the delay.
        at_byte: u64,
        /// Delay duration, milliseconds.
        for_ms: u64,
    },
    /// Let the write crossing write-offset `at_byte` emit only the bytes
    /// up to the offset, then sever — a torn (partial) write.
    TornWrite {
        /// Write-direction byte offset where the stream is cut.
        at_byte: u64,
    },
    /// Sever once read-offset `at_byte` has been reached — the peer
    /// vanishes mid-receive.
    DropRead {
        /// Read-direction byte offset where the stream is cut.
        at_byte: u64,
    },
}

impl Fault {
    fn read_trigger(&self) -> Option<u64> {
        match self {
            Fault::StallRead { at_byte, .. } | Fault::DropRead { at_byte } => Some(*at_byte),
            _ => None,
        }
    }

    fn write_trigger(&self) -> Option<u64> {
        match self {
            Fault::DelayWrite { at_byte, .. } | Fault::TornWrite { at_byte } => Some(*at_byte),
            _ => None,
        }
    }
}

/// A deterministic schedule of transport faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (the wrapped stream behaves normally).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Schedules a read stall: the read crossing read-offset `at_byte`
    /// sleeps `for_ms` first.
    pub fn stall_read(mut self, at_byte: u64, for_ms: u64) -> FaultPlan {
        self.faults.push(Fault::StallRead { at_byte, for_ms });
        self
    }

    /// Schedules a delayed write: the write crossing write-offset
    /// `at_byte` sleeps `for_ms` first.
    pub fn delay_write(mut self, at_byte: u64, for_ms: u64) -> FaultPlan {
        self.faults.push(Fault::DelayWrite { at_byte, for_ms });
        self
    }

    /// Schedules a torn write: the write crossing write-offset `at_byte`
    /// emits only the bytes up to the offset, then the stream is severed.
    pub fn torn_write(mut self, at_byte: u64) -> FaultPlan {
        self.faults.push(Fault::TornWrite { at_byte });
        self
    }

    /// Schedules a mid-receive disconnect once read-offset `at_byte` is
    /// reached.
    pub fn drop_read(mut self, at_byte: u64) -> FaultPlan {
        self.faults.push(Fault::DropRead { at_byte });
        self
    }

    /// Derives a random-but-reproducible plan from `seed`: one to three
    /// faults at offsets within `traffic_hint` bytes (pass roughly the
    /// number of bytes the connection is expected to move). The same seed
    /// always yields the same plan.
    pub fn seeded(seed: u64, traffic_hint: u64) -> FaultPlan {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let span = traffic_hint.max(1);
        let n = rng.random_range(1..=3u32);
        let mut plan = FaultPlan::new();
        for _ in 0..n {
            let at_byte = rng.random_range(0..span);
            let for_ms = rng.random_range(1..=25u64);
            plan = match rng.random_range(0..4u32) {
                0 => plan.stall_read(at_byte, for_ms),
                1 => plan.delay_write(at_byte, for_ms),
                2 => plan.torn_write(at_byte),
                _ => plan.drop_read(at_byte),
            };
        }
        plan
    }

    /// Wraps a stream so the scheduled faults fire at their offsets.
    pub fn wrap<S>(self, inner: S) -> FaultyStream<S> {
        FaultyStream {
            inner,
            pending: self.faults,
            read_pos: 0,
            write_pos: 0,
            severed: false,
        }
    }
}

/// A stream that behaves like `S` except at the byte offsets its
/// [`FaultPlan`] scheduled faults for.
pub struct FaultyStream<S> {
    inner: S,
    pending: Vec<Fault>,
    read_pos: u64,
    write_pos: u64,
    severed: bool,
}

impl<S> FaultyStream<S> {
    /// Whether a fault has already severed the transport.
    pub fn is_severed(&self) -> bool {
        self.severed
    }

    /// Unwraps the inner stream, discarding unfired faults.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn severed_err() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "severed by fault plan")
    }

    /// Pops the first pending fault (insertion order) whose trigger lies
    /// in `[pos, pos + len)` for the given direction.
    fn take_triggered(&mut self, read: bool, pos: u64, len: u64) -> Option<Fault> {
        let idx = self.pending.iter().position(|f| {
            let trig = if read {
                f.read_trigger()
            } else {
                f.write_trigger()
            };
            trig.is_some_and(|t| t >= pos && t < pos + len)
        })?;
        Some(self.pending.remove(idx))
    }
}

impl<S: Read + Severable> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.severed {
            return Err(Self::severed_err());
        }
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        if let Some(fault) = self.take_triggered(true, self.read_pos, buf.len() as u64) {
            match fault {
                Fault::StallRead { for_ms, .. } => {
                    thread::sleep(Duration::from_millis(for_ms));
                }
                Fault::DropRead { at_byte } => {
                    // Read up to the offset, then cut. If the trigger is
                    // exactly at the current position there is nothing
                    // left to deliver.
                    let room = (at_byte - self.read_pos) as usize;
                    if room > 0 {
                        let n = self.inner.read(&mut buf[..room])?;
                        self.read_pos += n as u64;
                        if n > 0 {
                            // Deliver the partial read first; re-arm the
                            // cut for the next call.
                            self.pending.insert(0, Fault::DropRead { at_byte });
                            return Ok(n);
                        }
                    }
                    self.inner.sever();
                    self.severed = true;
                    return Err(Self::severed_err());
                }
                _ => unreachable!("write fault triggered on the read path"),
            }
        }
        let n = self.inner.read(buf)?;
        self.read_pos += n as u64;
        Ok(n)
    }
}

impl<S: Write + Severable> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.severed {
            return Err(Self::severed_err());
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        if let Some(fault) = self.take_triggered(false, self.write_pos, buf.len() as u64) {
            match fault {
                Fault::DelayWrite { for_ms, .. } => {
                    thread::sleep(Duration::from_millis(for_ms));
                }
                Fault::TornWrite { at_byte } => {
                    let keep = (at_byte - self.write_pos) as usize;
                    if keep > 0 {
                        let n = self.inner.write(&buf[..keep])?;
                        self.write_pos += n as u64;
                        self.inner.flush()?;
                        self.inner.sever();
                        self.severed = true;
                        return Ok(n);
                    }
                    self.inner.sever();
                    self.severed = true;
                    return Err(Self::severed_err());
                }
                _ => unreachable!("read fault triggered on the write path"),
            }
        }
        let n = self.inner.write(buf)?;
        self.write_pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.severed {
            return Err(Self::severed_err());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory severable transport: reads from a script, writes into
    /// a sink.
    struct MemPipe {
        input: std::io::Cursor<Vec<u8>>,
        output: Vec<u8>,
        cut: bool,
    }

    impl MemPipe {
        fn new(input: Vec<u8>) -> MemPipe {
            MemPipe {
                input: std::io::Cursor::new(input),
                output: Vec::new(),
                cut: false,
            }
        }
    }

    impl Read for MemPipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.cut {
                return Err(io::Error::new(io::ErrorKind::ConnectionReset, "cut"));
            }
            self.input.read(buf)
        }
    }

    impl Write for MemPipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.cut {
                return Err(io::Error::new(io::ErrorKind::ConnectionReset, "cut"));
            }
            self.output.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Severable for MemPipe {
        fn sever(&mut self) {
            self.cut = true;
        }
    }

    #[test]
    fn an_empty_plan_is_transparent() {
        let mut s = FaultPlan::new().wrap(MemPipe::new(b"hello".to_vec()));
        let mut buf = [0u8; 5];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        s.write_all(b"world").unwrap();
        s.flush().unwrap();
        assert_eq!(s.into_inner().output, b"world");
    }

    #[test]
    fn torn_write_emits_exactly_the_bytes_before_the_offset() {
        let mut s = FaultPlan::new()
            .torn_write(3)
            .wrap(MemPipe::new(Vec::new()));
        let err = s.write_all(b"abcdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(s.is_severed());
        assert_eq!(s.into_inner().output, b"abc");
    }

    #[test]
    fn drop_read_delivers_bytes_before_the_offset_then_cuts() {
        let mut s = FaultPlan::new()
            .drop_read(4)
            .wrap(MemPipe::new(b"abcdefgh".to_vec()));
        let mut buf = [0u8; 8];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"abcd");
        let err = s.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(s.is_severed());
    }

    #[test]
    fn drop_read_at_offset_zero_cuts_immediately() {
        let mut s = FaultPlan::new()
            .drop_read(0)
            .wrap(MemPipe::new(b"abc".to_vec()));
        let mut buf = [0u8; 3];
        assert!(s.read(&mut buf).is_err());
        assert!(s.is_severed());
    }

    #[test]
    fn stall_and_delay_do_not_corrupt_the_byte_stream() {
        let mut s = FaultPlan::new()
            .stall_read(2, 1)
            .delay_write(1, 1)
            .wrap(MemPipe::new(b"abcdef".to_vec()));
        let mut buf = [0u8; 6];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
        s.write_all(b"123456").unwrap();
        assert_eq!(s.into_inner().output, b"123456");
    }

    #[test]
    fn seeded_plans_are_reproducible_and_distinct() {
        let a1 = FaultPlan::seeded(7, 1000);
        let a2 = FaultPlan::seeded(7, 1000);
        assert_eq!(a1, a2);
        assert!(!a1.faults().is_empty() && a1.faults().len() <= 3);
        // Different seeds should (for these particular values) differ.
        let b = FaultPlan::seeded(8, 1000);
        assert_ne!(a1, b);
    }

    #[test]
    fn faults_fire_in_insertion_order_when_offsets_collide() {
        // Two faults at the same offset: the first scheduled fires first.
        let mut s = FaultPlan::new()
            .stall_read(0, 1)
            .drop_read(0)
            .wrap(MemPipe::new(b"xy".to_vec()));
        let mut buf = [0u8; 2];
        // First read: stall (harmless), bytes still delivered.
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0);
        // The drop at offset 0 is in [0, n) no longer — it fires only if
        // its trigger is still ahead of the cursor, which it is not.
        assert!(!s.is_severed());
    }
}
