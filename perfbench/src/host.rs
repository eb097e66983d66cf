//! Host and process readings from `/proc`: CPU time, peak RSS, context
//! switches, threads, steal, and a host fingerprint (CPU model, thread
//! count, kernel, measured memcpy rate).

use std::fs;
use std::time::Instant;

/// `USER_HZ`, the unit of `/proc/<pid>/stat` times; fixed at 100 by the
/// Linux ABI on the architectures this benchmark runs on.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of process `pid` (`"self"` for this one),
/// all threads, including threads that have already exited.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_field(&status, "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Context switches (voluntary + involuntary) summed over every live
/// thread of `pid`, and the number of those threads.
pub fn ctx_switches_and_threads(pid: u32) -> Option<(u64, u64)> {
    let mut switches = 0;
    let mut threads = 0;
    for entry in fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let Ok(entry) = entry else { continue };
        let Ok(status) = fs::read_to_string(entry.path().join("status")) else {
            continue;
        };
        switches += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        threads += 1;
    }
    Some((switches, threads))
}

/// Host-wide steal ticks so far (the 8th value of `/proc/stat`'s `cpu`
/// line).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Readings at a window edge: time since the run's epoch, daemon and
/// load-generator CPU, host steal, and the daemon's context switches and
/// threads.
#[derive(Clone, Copy)]
pub struct Mark {
    /// Nanoseconds since the run's epoch.
    pub t_ns: u64,
    /// Daemon user + system CPU seconds.
    pub server_cpu_s: f64,
    /// This process's user + system CPU seconds.
    pub client_cpu_s: f64,
    /// Host steal ticks.
    pub steal: u64,
    /// Daemon context switches.
    pub server_ctx: u64,
    /// Daemon threads.
    pub server_threads: u64,
}

/// Takes a [`Mark`] for daemon `pid`.
pub fn mark(epoch: Instant, pid: u32) -> Mark {
    let (server_ctx, server_threads) = ctx_switches_and_threads(pid).unwrap_or((0, 0));
    Mark {
        t_ns: epoch.elapsed().as_nanos() as u64,
        server_cpu_s: cpu_seconds(&pid.to_string()).unwrap_or(0.0),
        client_cpu_s: cpu_seconds("self").unwrap_or(0.0),
        steal: steal_ticks(),
        server_ctx,
        server_threads,
    }
}

/// Where a result was measured. Numbers from hosts with different
/// fingerprints are not comparable.
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// Best of a few 64 MiB copies, GB/s.
    pub memcpy_gbps: f64,
}

/// Takes the fingerprint (about 0.1 s, for the memcpy measurement).
pub fn fingerprint() -> Fingerprint {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Fingerprint {
        cpu_model,
        nproc,
        kernel,
        memcpy_gbps: memcpy_gbps(),
    }
}

fn memcpy_gbps() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![0x5Au8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    BYTES as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_readings_are_sane() {
        assert!(cpu_seconds("self").is_some());
        let pid = std::process::id();
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
        let (_, threads) = ctx_switches_and_threads(pid).unwrap();
        assert!(threads >= 1);
    }

    #[test]
    fn status_fields_parse_their_first_number() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nThreads:\t3\n";
        assert_eq!(status_field(s, "VmHWM:"), Some(2048));
        assert_eq!(status_field(s, "Threads:"), Some(3));
        assert_eq!(status_field(s, "Missing:"), None);
    }
}
