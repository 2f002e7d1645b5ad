//! A spawned `unitsd` under test: its own socket and directory, ready
//! by connect-retry, peak RSS read before shutdown, and killed on every
//! path that does not shut it down cleanly.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use units_serve::proto::Request;
use units_serve::Client;

/// How long a daemon may take to accept its first connection.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running daemon. Dropping it kills the process, waits for it, and
/// removes its directory, so no error path leaks a process or a stale
/// socket.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    dir: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `unitsd` with its default options (the configuration
    /// under test) on a fresh socket in the fresh directory `dir`;
    /// relative paths keep the socket path short.
    pub fn spawn(unitsd: &Path, dir: PathBuf) -> io::Result<Daemon> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let socket = dir.join("d.sock");
        let child = Command::new(unitsd)
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        Ok(Daemon {
            child: Some(child),
            dir,
            socket,
        })
    }

    /// Connects, retrying until the daemon accepts or the deadline
    /// passes — the socket file exists a moment before `listen`, so a
    /// refused connect is retried, and a daemon that died is an error.
    pub fn connect(&mut self) -> io::Result<Client> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            match Client::connect(&self.socket) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if let Some(status) = self
                        .child
                        .as_mut()
                        .and_then(|c| c.try_wait().ok().flatten())
                    {
                        return Err(io::Error::other(format!("unitsd exited early: {status}")));
                    }
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Sends `shutdown` and waits for the process to exit; falls back
    /// to killing it.
    pub fn shutdown(mut self) -> io::Result<()> {
        let sent = self.connect().and_then(|mut c| c.call(&Request::Shutdown));
        let mut child = self
            .child
            .take()
            .expect("daemon child present until shutdown");
        if sent.is_err() {
            let _ = child.kill();
        }
        let status = child.wait()?;
        sent?;
        if !status.success() {
            return Err(io::Error::other(format!("unitsd exited with {status}")));
        }
        if self.socket.exists() {
            return Err(io::Error::other("unitsd left its socket behind"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn vm_hwm_mb(pid: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM line"))?;
    Ok(kb / 1024.0)
}
