//! The system under test, as a child process.
//!
//! `qcb sut …` is a thin `main` over [`qc_server::Server::bind`]: it
//! prints its TCP and UDP addresses, serves until stdin closes, shuts
//! down gracefully and exits. The driver spawns it (its own executable —
//! `cargo run --bin qcb` builds only that one binary) so generator and
//! server share no thread, and reads the server's CPU time and peak
//! resident set from `/proc/<pid>` — from outside.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use qc_server::{IngestConfig, Server, ServerConfig};
use qc_store::{FsyncPolicy, StoreConfig, WindowConfig};

/// Everything a workload may change from the defaults. The rest is
/// `ServerConfig::default()` / `StoreConfig::default()` /
/// `IngestConfig::default()` (k = 256, b = 4, 16 stripes).
#[derive(Clone, Debug, Default)]
pub struct SutOptions {
    /// Durable data directory (`None`: memory only).
    pub data_dir: Option<PathBuf>,
    /// Time-windowed keys, configured by [`window_config`].
    pub windowed: bool,
    /// UDP ingest front end.
    pub ingest: bool,
    /// Disable the housekeeping sweep (recovery preload only).
    pub no_sweep: bool,
}

/// Housekeeping interval on every measured server: short enough that a
/// run sees several sweeps (checkpoints on a durable store).
pub const SWEEP_INTERVAL: Duration = Duration::from_secs(5);

/// Stated flush policy of the durable workload, the same on both sides of
/// any comparison: the log is encoded and appended on the ack path, and
/// reaches the disk at checkpoints and on graceful stop. It is the policy
/// ROADMAP item 4a is stated in ("with fsync off … target ≤ 2× memory with
/// `Off`"), and it keeps the device out of the metric: with
/// `Interval(1 ms)` a writer blocks on an fdatasync every millisecond,
/// and run-to-run throughput followed the sandbox's disk (150 µs to
/// several ms per sync) — identical runs gave 0.5 M to 1.3 M values/s.
/// What a sync costs is `persist.durable_ack_p50_us`, per layer.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Off;

/// Window width of the windowed workload, in event-time milliseconds.
pub const WINDOW_MS: u64 = 1000;
/// Lateness bound of the windowed workload, in windows.
pub const LATENESS_WINDOWS: u64 = 5;

/// The windowed workload's layout: 1 s windows (event time is
/// client-supplied), two downsample levels, one hour of retention, 5 s of
/// lateness.
pub fn window_config() -> WindowConfig {
    WindowConfig::default()
        .width(Duration::from_millis(WINDOW_MS))
        .downsample_levels(2)
        .retention(Duration::from_secs(3600))
        .lateness(Duration::from_millis(WINDOW_MS * LATENESS_WINDOWS))
}

impl SutOptions {
    fn to_args(&self) -> Vec<String> {
        let mut args = vec!["sut".to_string()];
        if let Some(dir) = &self.data_dir {
            args.push("--data-dir".into());
            args.push(dir.display().to_string());
        }
        for (flag, on) in
            [("--window", self.windowed), ("--ingest", self.ingest), ("--no-sweep", self.no_sweep)]
        {
            if on {
                args.push(flag.into());
            }
        }
        args
    }

    fn from_args(args: &[String]) -> Result<SutOptions, String> {
        let mut opts = SutOptions::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--data-dir" => {
                    opts.data_dir = Some(it.next().ok_or("--data-dir needs a path")?.into())
                }
                "--window" => opts.windowed = true,
                "--ingest" => opts.ingest = true,
                "--no-sweep" => opts.no_sweep = true,
                other => return Err(format!("unknown sut flag {other}")),
            }
        }
        Ok(opts)
    }

    fn server_config(&self) -> ServerConfig {
        let mut store = StoreConfig::default();
        if self.data_dir.is_some() {
            store = store.fsync(FSYNC);
        }
        if self.windowed {
            store = store.window(window_config());
        }
        ServerConfig {
            store,
            data_dir: self.data_dir.clone(),
            ingest: self.ingest.then(IngestConfig::default),
            cool_down_interval: (!self.no_sweep).then_some(SWEEP_INTERVAL),
            ..ServerConfig::default()
        }
    }
}

static SERVER_CPUS: OnceLock<Option<String>> = OnceLock::new();

/// Give the generator and the server their own cores: this process (and
/// every thread it spawns from here on) on CPU 0, servers spawned later on
/// the remaining CPUs. Returns the server's CPU list, or `None` when there
/// is one core or no `taskset` — then nothing is pinned.
///
/// Without this, run-to-run results are bimodal on the two-core sandbox:
/// a request's round trip is ~10 µs when the scheduler happens to put a
/// client thread and its server worker on one vCPU and ~45 µs when it
/// does not (a cross-vCPU wake-up is a VM exit), and which one a run gets
/// is history-dependent. Separate cores also keep the generator from
/// taking cycles from the server it measures.
pub fn separate_cores() -> Option<&'static str> {
    SERVER_CPUS
        .get_or_init(|| {
            let cores = crate::report::nproc();
            if cores < 2 {
                return None;
            }
            let pinned = Command::new("taskset")
                .args(["-pc", "0", &std::process::id().to_string()])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .is_ok_and(|status| status.success());
            pinned.then(|| format!("1-{}", cores - 1))
        })
        .as_deref()
}

/// The CPU list servers are pinned to, if [`separate_cores`] took effect.
pub fn server_cpus() -> Option<&'static str> {
    SERVER_CPUS.get().and_then(|cpus| cpus.as_deref())
}

/// Child side: serve until stdin reaches EOF. Returns the exit code.
pub fn serve(args: &[String]) -> i32 {
    let opts = match SutOptions::from_args(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("qcb sut: {e}");
            return 2;
        }
    };
    let handle = match Server::bind("127.0.0.1:0", opts.server_config()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("qcb sut: bind failed: {e}");
            return 1;
        }
    };
    // The listener accepts only after recovery finished, so the parent's
    // clock on "spawn → ready" includes checkpoint load and log replay.
    println!("tcp {}", handle.local_addr());
    if let Some(udp) = handle.ingest_addr() {
        println!("udp {udp}");
    }
    println!("ready");
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    handle.shutdown();
    0
}

/// Parent side: a running server process.
pub struct Sut {
    child: Child,
    stdin: Option<ChildStdin>,
    /// TCP serving address.
    pub tcp: SocketAddr,
    /// UDP ingest address, when enabled.
    pub udp: Option<SocketAddr>,
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// reports `utime`/`stime` in `USER_HZ`, which is 100 on every mainstream
/// architecture; reading it properly needs `sysconf`, i.e. libc.
const USER_HZ: f64 = 100.0;
/// Bytes per page of the `rss` field, for the same reason: 4 KiB on
/// x86-64 and on every default arm64 kernel.
const PAGE_BYTES: f64 = 4096.0;

/// A process's resource use at one instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Usage {
    /// User + system CPU time used so far, µs.
    pub cpu_us: f64,
    /// Resident set now, MiB.
    pub rss_mib: f64,
}

impl Sut {
    /// Spawn this executable as a server and wait until it is ready.
    pub fn spawn(opts: &SutOptions) -> std::io::Result<Sut> {
        let exe = std::env::current_exe()?;
        let mut command = match server_cpus() {
            Some(cpus) => {
                let mut pinned = Command::new("taskset");
                pinned.args(["-c", cpus]).arg(exe);
                pinned
            }
            None => Command::new(exe),
        };
        let mut child =
            command.args(opts.to_args()).stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut sut =
            Sut { child, stdin, tcp: "0.0.0.0:0".parse().expect("literal addr"), udp: None };
        // On any early return `sut` drops, which kills and reaps the child.
        for line in BufReader::new(stdout).lines() {
            let line = line?;
            let bad = |_| std::io::Error::other(format!("bad address line from sut: {line}"));
            if let Some(addr) = line.strip_prefix("tcp ") {
                sut.tcp = addr.parse().map_err(bad)?;
            } else if let Some(addr) = line.strip_prefix("udp ") {
                sut.udp = Some(addr.parse().map_err(bad)?);
            } else if line == "ready" {
                return Ok(sut);
            }
        }
        Err(std::io::Error::other("sut exited before it was ready"))
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// What the server process has used so far: resident set and CPU time
    /// from `/proc/<pid>/stat`, the CPU time refined to nanoseconds from
    /// its threads' `schedstat` where the kernel keeps them (`stat` counts
    /// in 10 ms ticks, 1–3 % of a one-second slice). The server's threads
    /// all live as long as it does, so their sum never loses a thread.
    pub fn usage(&self) -> std::io::Result<Usage> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        let mut usage = parse_usage(&stat)
            .ok_or_else(|| std::io::Error::other("unparsable /proc/<pid>/stat"))?;
        let on_cpu_ns = std::fs::read_dir(format!("/proc/{}/task", self.pid()))?
            .map(|task| {
                let schedstat =
                    std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
                schedstat.split_whitespace().next()?.parse::<u64>().ok()
            })
            .sum::<Option<u64>>();
        if let Some(ns) = on_cpu_ns {
            usage.cpu_us = ns as f64 / 1e3;
        }
        Ok(usage)
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> std::io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        parse_vm_hwm_kib(&status)
            .map(|kib| kib as f64 / 1024.0)
            .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/<pid>/status"))
    }

    /// Graceful stop: close stdin (the server shuts down on EOF, syncing
    /// its log tail) and wait for the process to end.
    pub fn stop(mut self) -> std::io::Result<()> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(std::io::Error::other(format!("sut exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other("sut did not stop within 30 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Sut {
    /// Never leave a server behind: whatever path drops the handle (a
    /// failed gate, a panic), the child is killed and reaped.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None) | Err(_)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `utime + stime` and `rss` from a `/proc/<pid>/stat` line. The command
/// name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_usage(stat: &str) -> Option<Usage> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime 14, stime 15, rss 24.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    let rss_pages: u64 = fields.nth(8)?.parse().ok()?;
    Some(Usage {
        cpu_us: (utime + stime) as f64 * 1e6 / USER_HZ,
        rss_mib: rss_pages as f64 * PAGE_BYTES / (1024.0 * 1024.0),
    })
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A fresh, empty directory under `scratch` for one server's data.
pub fn fresh_dir(scratch: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = scratch.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_survives_a_hostile_command_name() {
        let stat = "4242 (qcb) sut)) S 1 4242 4242 0 -1 4194560 \
                    120 0 0 0 37 5 0 0 20 0 9 0 100 200 512 300";
        assert_eq!(parse_usage(stat), Some(Usage { cpu_us: 420_000.0, rss_mib: 2.0 }));
        assert_eq!(parse_usage("garbage"), None);
        assert_eq!(parse_usage("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tqcb\nVmPeak:\t  900 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12345));
        assert_eq!(parse_vm_hwm_kib("Name:\tqcb\n"), None);
    }

    #[test]
    fn options_round_trip_through_the_command_line() {
        let opts = SutOptions {
            data_dir: Some("/tmp/x y".into()),
            windowed: true,
            ingest: false,
            no_sweep: true,
        };
        let back = SutOptions::from_args(&opts.to_args()[1..]).unwrap();
        assert_eq!(back.data_dir, opts.data_dir);
        assert_eq!((back.windowed, back.ingest, back.no_sweep), (true, false, true));
        assert!(SutOptions::from_args(&["--bogus".to_string()]).is_err());
    }
}
