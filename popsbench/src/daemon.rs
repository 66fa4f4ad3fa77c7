//! Launching the shipped `pops serve` binary and reading its resource use
//! from `/proc`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use pops_bipartite::ColorerKind;
use pops_service::{ServiceClient, ServiceConfig, WireFormat};

/// The daemon's command-line flags and the service configuration they
/// set. Every sizing flag must be given: the daemon's defaults follow the
/// host's core count, which would make cache behaviour depend on the host.
#[derive(Debug, Clone)]
pub struct DaemonFlags {
    pub args: Vec<String>,
    pub config: ServiceConfig,
}

impl DaemonFlags {
    /// Parses a whitespace-separated flag string such as
    /// `--shards 2 --cache 1024 ... --nodelay`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let args: Vec<String> = text.split_whitespace().map(str::to_string).collect();
        let value = |flag: &str| -> Result<usize, String> {
            let at = args
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("daemon flags must set {flag}"))?;
            args.get(at + 1)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("daemon flag {flag} needs a number"))
        };
        let config = ServiceConfig {
            shards: value("--shards")?,
            cache_capacity: value("--cache")?,
            phase_cache_capacity: value("--phase-cache")?,
            cache_shards: value("--cache-shards")?,
            max_in_flight: value("--max-in-flight")?,
            colorer: ColorerKind::AlternatingPath,
        };
        if !args.iter().any(|a| a == "--nodelay") {
            return Err("daemon flags must set --nodelay".into());
        }
        Ok(Self { args, config })
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, e.g. `0-1,4`).
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("/proc/self/status has no Cpus_allowed_list")?;
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let parse = |v: &str| {
            v.parse::<usize>()
                .map_err(|_| format!("bad CPU list {list:?}"))
        };
        cpus.extend(parse(lo)?..=parse(hi)?);
    }
    Ok(cpus)
}

/// Pins process `pid` (with `all_threads`, every thread it has now) to
/// `cpu`, using `taskset`.
pub fn pin(pid: u32, cpu: usize, all_threads: bool) -> Result<(), String> {
    let mut cmd = Command::new("taskset");
    if all_threads {
        cmd.arg("-a");
    }
    let status = cmd
        .args(["-pc", &cpu.to_string(), &pid.to_string()])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run taskset: {e}"))?;
    if !status.success() {
        return Err(format!(
            "taskset could not pin {pid} to cpu {cpu}: {status}"
        ));
    }
    Ok(())
}

/// Client-side deadline on every call, so a hung daemon fails the run
/// instead of stalling it.
const CALL_TIMEOUT: Duration = Duration::from_secs(20);

/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, which the Linux
/// ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// A running daemon. Dropping it kills the process and waits for it, so no
/// exit path of the benchmark leaves a daemon behind.
pub struct Daemon {
    child: Child,
    /// Kept open until the daemon has exited: its shutdown summary goes to
    /// stdout, and a closed pipe would turn that print into a crash.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawns `pops serve` on an ephemeral port for POPS(d, g) and waits
    /// for the line announcing its address. The daemon's engine colourer is
    /// its default, the alternating-path one that `DaemonFlags` assumes.
    pub fn spawn(pops: &Path, d: usize, g: usize, flags: &DaemonFlags) -> Result<Self, String> {
        let (d, g) = (d.to_string(), g.to_string());
        let mut child = Command::new(pops)
            .args(["serve", "--d", &d, "--g", &g, "--port", "0"])
            .args(&flags.args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", pops.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout was not piped".into());
        };
        // From here on, Drop cleans up on every error path.
        let mut daemon = Self {
            child,
            _stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        daemon
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("cannot read the daemon's banner: {e}"))?;
        daemon.addr = line
            .split_whitespace()
            .find(|w| w.starts_with("127.0.0.1:"))
            .ok_or_else(|| format!("daemon banner names no address: {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    /// Opens a closed-loop connection in `format`.
    pub fn connect(&self, format: WireFormat) -> Result<ServiceClient, String> {
        let mut client = ServiceClient::connect_with_timeout(&self.addr, Some(CALL_TIMEOUT))
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
        client
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        client
            .set_format(format)
            .map_err(|e| format!("cannot negotiate {}: {e}", format.name()))?;
        Ok(client)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The daemon's user + system CPU time so far, in seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name, which may hold
        // spaces; utime and stime are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .ok_or_else(|| format!("{path}: no command field"))?
            .1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64 / USER_HZ)
                .ok_or_else(|| format!("{path}: malformed field {}", i + 3))
        };
        Ok(tick(11)? + tick(12)?)
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Asks the daemon to stop over `client`, closes the connection (the
    /// daemon drains its handlers before exiting) and waits for the exit.
    pub fn shutdown(mut self, mut client: ServiceClient) -> Result<(), String> {
        client
            .shutdown()
            .map_err(|e| format!("shutdown op failed: {e}"))?;
        drop(client);
        let deadline = Instant::now() + CALL_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
