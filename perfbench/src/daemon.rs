//! The daemon under test: `rbt-cli serve` with default settings, run as a
//! child process on a generated key directory.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: std::ffi::c_ulong = 9;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Makes the child started by `cmd` receive SIGKILL when this process's
/// spawning thread exits, so no child outlives a benchmark that is itself
/// killed before its `Drop` guards run.
fn die_with_parent(cmd: &mut Command) -> &mut Command {
    // SAFETY: the hook runs in the forked child before exec and makes one
    // async-signal-safe system call, touching no memory of the parent.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        })
    }
}

/// A running `rbt-cli serve`. Dropping it kills the process and waits for
/// it, so no daemon outlives the benchmark, even on a panic.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    // Held so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `cli serve --keys <keys> --addr 127.0.0.1:0` and waits for
    /// its banner, which names the bound address.
    pub fn launch(cli: &Path, keys: &Path) -> Result<Daemon, String> {
        let mut child = die_with_parent(&mut Command::new(cli))
            .arg("serve")
            .arg("--keys")
            .arg(keys)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stdout.read_line(&mut line);
            if !matches!(read, Ok(n) if n > 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before printing its banner".to_string());
            }
            // "serving N tenants on 127.0.0.1:PORT (…)"
            if let Some(rest) = line.strip_prefix("serving ") {
                let addr = rest
                    .split(" on ")
                    .nth(1)
                    .and_then(|s| s.split_whitespace().next())
                    .and_then(|s| s.parse::<SocketAddr>().ok());
                match addr {
                    Some(addr) => break addr,
                    None => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unreadable daemon banner: {}", line.trim()));
                    }
                }
            }
        };
        Ok(Daemon {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `path` afresh (removing anything left there).
    pub fn create(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
