//! Starting, measuring and stopping the real `calib-serve` and
//! `calib-router` processes.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use calib_core::json::Json;

use crate::workload::{
    Topology, CHECKPOINT_EVERY, DIRECT_WORKERS, MAX_INFLIGHT, SHARDS, SHARD_WORKERS,
};

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// One running process.
struct Proc {
    child: Child,
    /// Drains stdout after the `listening` line, so the process never
    /// blocks on a full pipe.
    stdout: Option<JoinHandle<()>>,
    /// Collects stderr, for the error report if the process dies.
    stderr: Option<JoinHandle<Vec<String>>>,
    addr: String,
    is_router: bool,
}

/// The processes of one workload, listening.
pub struct Cluster {
    procs: Vec<Proc>,
    /// Where clients connect: the router, or the only daemon.
    pub entry: String,
    journal_dir: Option<PathBuf>,
}

/// Per-process CPU seconds (user + system) at one instant.
#[derive(Debug, Clone)]
pub struct CpuSample(Vec<f64>);

/// CPU used between two samples, split by role.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuUse {
    /// Every daemon.
    pub daemons_s: f64,
    /// The router; 0 without one.
    pub router_s: f64,
}

fn spawn(bin: &Path, args: &[String]) -> Result<(Child, BufReader<ChildStdout>), String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    Ok((child, BufReader::new(stdout)))
}

/// Waits for the `{"type":"listening","addr":…}` line, then hands the rest
/// of stdout to a draining thread.
fn listening(
    mut child: Child,
    mut out: BufReader<ChildStdout>,
    is_router: bool,
) -> Result<Proc, String> {
    let mut line = String::new();
    let read = out.read_line(&mut line);
    let addr = Json::parse(line.trim())
        .ok()
        .filter(|v| v.get("type").and_then(Json::as_str) == Some("listening"))
        .and_then(|v| v.get("addr").and_then(Json::as_str).map(str::to_string));
    let stderr = child.stderr.take().map(|err| {
        std::thread::spawn(move || {
            let mut kept: Vec<String> = Vec::new();
            for l in BufReader::new(err).lines().map_while(Result::ok) {
                if kept.len() < 20 {
                    kept.push(l);
                }
            }
            kept
        })
    });
    let stdout = std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(out.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    let mut proc = Proc {
        child,
        stdout: Some(stdout),
        stderr,
        addr: String::new(),
        is_router,
    };
    match (read, addr) {
        (Ok(_), Some(addr)) => {
            proc.addr = addr;
            Ok(proc)
        }
        _ => {
            let why = proc.stop().join("\n");
            Err(format!("process did not report listening: {why}"))
        }
    }
}

impl Proc {
    /// Kills the process, waits for it and its pipe threads; returns what
    /// it wrote to stderr.
    fn stop(&mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

/// Starts the topology's processes and waits until every one listens.
/// Returns the cluster and the set-up time in seconds: from spawning the
/// first process until the last one printed `listening`.
pub fn start(
    topology: Topology,
    bin_dir: &Path,
    work_dir: &Path,
) -> Result<(Cluster, f64), String> {
    let serve = bin_dir.join("calib-serve");
    let router = bin_dir.join("calib-router");
    let base = |workers: usize| -> Vec<String> {
        vec![
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            workers.to_string(),
            "--run-forever".into(),
        ]
    };
    let started = Instant::now();
    let mut cluster = Cluster {
        procs: Vec::new(),
        entry: String::new(),
        journal_dir: None,
    };
    match topology {
        Topology::Direct => {
            let (child, out) = spawn(&serve, &base(DIRECT_WORKERS))?;
            cluster.procs.push(listening(child, out, false)?);
        }
        Topology::Fleet => {
            let journal = work_dir.join("journal");
            let _ = std::fs::remove_dir_all(&journal);
            std::fs::create_dir_all(&journal)
                .map_err(|e| format!("cannot create {}: {e}", journal.display()))?;
            cluster.journal_dir = Some(journal.clone());
            let mut args = base(SHARD_WORKERS);
            args.extend([
                "--journal-dir".to_string(),
                journal.display().to_string(),
                "--fsync".into(),
                "tick".into(),
                "--checkpoint-every-n".into(),
                CHECKPOINT_EVERY.to_string(),
                "--max-inflight".into(),
                MAX_INFLIGHT.to_string(),
            ]);
            // Shards start side by side; the router needs their addresses.
            let mut pending = Vec::new();
            let mut failure = None;
            for _ in 0..SHARDS {
                match spawn(&serve, &args) {
                    Ok(p) => pending.push(p),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            for (mut child, out) in pending {
                if failure.is_some() {
                    let _ = child.kill();
                    let _ = child.wait();
                    continue;
                }
                match listening(child, out, false) {
                    Ok(p) => cluster.procs.push(p),
                    Err(e) => failure = Some(e),
                }
            }
            if let Some(e) = failure {
                cluster.stop();
                return Err(e);
            }
            let mut router_args = vec![
                "--listen".to_string(),
                "127.0.0.1:0".into(),
                "--run-forever".into(),
            ];
            for p in &cluster.procs {
                router_args.push("--shard".into());
                router_args.push(p.addr.clone());
            }
            match spawn(&router, &router_args).and_then(|(c, o)| listening(c, o, true)) {
                Ok(p) => cluster.procs.push(p),
                Err(e) => {
                    cluster.stop();
                    return Err(e);
                }
            }
        }
    }
    let setup_s = started.elapsed().as_secs_f64();
    cluster.entry = cluster
        .procs
        .iter()
        .find(|p| p.is_router)
        .or(cluster.procs.first())
        .map(|p| p.addr.clone())
        .unwrap_or_default();
    Ok((cluster, setup_s))
}

fn proc_cpu_s(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

fn proc_hwm_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The host's CPU ticks so far: `(steal, total)`, from `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of the host's CPU time stolen by the hypervisor since `before`
/// (from [`host_ticks`]), percent.
pub fn steal_pct_since(before: (u64, u64)) -> f64 {
    let (steal, total) = host_ticks();
    let total = total.saturating_sub(before.1).max(1);
    steal.saturating_sub(before.0) as f64 / total as f64 * 100.0
}

/// One `metrics` request over a fresh connection.
fn metrics_of(addr: &str) -> Result<Json, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("metrics connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    stream
        .write_all(b"{\"type\":\"metrics\"}\n")
        .map_err(|e| format!("metrics write: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("metrics read: {e}"))?;
    Json::parse(line.trim()).map_err(|e| format!("metrics reply: {e}"))
}

impl Cluster {
    /// CPU seconds of every process right now.
    pub fn cpu(&self) -> CpuSample {
        CpuSample(
            self.procs
                .iter()
                .map(|p| proc_cpu_s(p.child.id()))
                .collect(),
        )
    }

    /// CPU used since `before`, by role.
    pub fn cpu_since(&self, before: &CpuSample) -> CpuUse {
        let now = self.cpu();
        let mut used = CpuUse::default();
        for ((p, b), a) in self.procs.iter().zip(&before.0).zip(&now.0) {
            if p.is_router {
                used.router_s += a - b;
            } else {
                used.daemons_s += a - b;
            }
        }
        used
    }

    /// Sum of peak resident memory (`VmHWM`) over every process, MiB.
    pub fn rss_peak_mib(&self) -> f64 {
        let kib: u64 = self.procs.iter().map(|p| proc_hwm_kib(p.child.id())).sum();
        kib as f64 / 1024.0
    }

    /// Each daemon's `metrics` snapshot, and the router's `router` object
    /// when there is a router.
    pub fn metrics(&self) -> Result<(Vec<Json>, Option<Json>), String> {
        let mut daemons = Vec::new();
        let mut router = None;
        for p in &self.procs {
            let m = metrics_of(&p.addr)?;
            if p.is_router {
                router = m.get("router").cloned();
            } else {
                daemons.push(m);
            }
        }
        Ok((daemons, router))
    }

    /// Kills every process, waits for each, and removes the journal.
    pub fn stop(&mut self) {
        for p in &mut self.procs {
            p.stop();
        }
        self.procs.clear();
        if let Some(dir) = self.journal_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
    }
}
