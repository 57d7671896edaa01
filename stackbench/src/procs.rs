//! The shipped binaries as child processes: spawn, address discovery,
//! readiness, peak memory, and shutdown.

use fews_net::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a child may take to print its listening line and answer `ping`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// One running `fews listen` or `fews router`. Dropping it kills the child
/// and waits for it, so no process outlives the benchmark.
pub struct Server {
    child: Child,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound loopback address.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn `fews <args…>` and return once it answers `ping`. The child
    /// binds port 0; its address comes from the banner line.
    pub fn spawn(fews: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(fews)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", fews.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let addr = match read_banner(&mut stdout) {
            Ok(a) => a,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("fews {}: {e}", args.join(" ")));
            }
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        server.ping()?;
        Ok(server)
    }

    /// One `ping` round trip on a fresh connection.
    pub fn ping(&self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            match Client::connect(self.addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| c.ping().map_err(|e| e.to_string()))
            {
                Ok(()) => return Ok(()),
                Err(e) if Instant::now() > deadline => return Err(format!("ping: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the child, in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM line".to_string())
    }

    /// Ask the child to shut down and wait for it to exit; kill it if it
    /// does not within a few seconds.
    pub fn shutdown(mut self) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Read banner lines until `listening on ADDR` / `routing on ADDR`.
fn read_banner(out: &mut BufReader<ChildStdout>) -> Result<SocketAddr, String> {
    let mut line = String::new();
    loop {
        line.clear();
        if out.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("exited before listening".into());
        }
        for tag in ["listening on ", "routing on "] {
            if let Some(rest) = line.strip_prefix(tag) {
                let addr = rest.split_whitespace().next().unwrap_or("");
                return addr
                    .parse()
                    .map_err(|e| format!("bad address {addr:?}: {e}"));
            }
        }
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Create `.stackbench/<tag>-<pid>` under the current directory, empty.
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let path = PathBuf::from(".stackbench").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("mkdir {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).map_err(|e| format!("mkdir {}: {e}", p.display()))?;
        Ok(p)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run is using it.
        let _ = std::fs::remove_dir(".stackbench");
    }
}

/// The aggregate `cpu` line of `/proc/stat` (jiffies per state), or empty.
pub fn cpu_times() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu ")?.to_string();
            Some(
                line.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// Share of CPU time the hypervisor stole between two [`cpu_times`] reads
/// (NaN when unknown). A run with high steal ran on a contended host.
pub fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().sum();
    match delta.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => f64::NAN,
    }
}
