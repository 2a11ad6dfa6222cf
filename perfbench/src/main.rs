//! perfbench: the end-to-end serving benchmark.
//!
//! ```text
//! perfbench --workload interactive|overload|fleet --seed N --seconds S
//!           --trace 0|1 --bin-dir DIR --work-dir DIR
//! ```
//!
//! Starts real `calib-serve` (and, for `fleet`, `calib-router`) processes
//! on loopback from the binaries in `--bin-dir`, drives the workload's
//! closed loop for `--seconds`, checks every drained session against its
//! batch ground truth, and prints one JSON result as its last line. With
//! `--trace 1` it also replays the same request lines in-process and
//! prints the per-layer split instead of the end-to-end metrics. The line
//! before the result is a diagnostic record: request counts (sent,
//! succeeded, refused, failed), sample counts and the host-speed
//! reference. See `README.md` beside this crate.

mod daemons;
mod drive;
mod replay;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use calib_core::json::{Json, ToJson};

use crate::workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;
/// Length of the untimed warm-up before the timed phase, seconds.
const WARMUP_S: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::new(),
        work_dir: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--bin-dir" => args.bin_dir = value("--bin-dir")?.into(),
            "--work-dir" => args.work_dir = value("--work-dir")?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if workload::find(&args.workload).is_none() {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    if args.bin_dir.as_os_str().is_empty() || args.work_dir.as_os_str().is_empty() {
        return Err("--bin-dir and --work-dir are required".to_string());
    }
    Ok(args)
}

/// Sums a `global` counter over daemon `metrics` snapshots.
fn global_sum(snapshots: &[Json], key: &str) -> u64 {
    snapshots
        .iter()
        .filter_map(|m| m.get("global")?.get(key)?.as_u64())
        .sum()
}

/// The largest value of `field` in a histogram object over snapshots.
fn histogram_max(snapshots: &[Json], hist: &str, field: &str) -> u64 {
    snapshots
        .iter()
        .filter_map(|m| m.get(hist)?.get(field)?.as_u64())
        .max()
        .unwrap_or(0)
}

/// Sums `field` of a histogram object over snapshots.
fn histogram_sum(snapshots: &[Json], hist: &str, field: &str) -> u64 {
    snapshots
        .iter()
        .filter_map(|m| m.get(hist)?.get(field)?.as_u64())
        .sum()
}

/// The mean of a histogram merged over snapshots; 0 when it is empty.
fn histogram_mean(snapshots: &[Json], hist: &str) -> f64 {
    histogram_sum(snapshots, hist, "sum") as f64
        / histogram_sum(snapshots, hist, "count").max(1) as f64
}

fn queue_high_water(snapshots: &[Json]) -> u64 {
    snapshots
        .iter()
        .filter_map(|m| m.get("per_tenant")?.as_arr())
        .flatten()
        .filter_map(|t| t.get("queue_high_water")?.as_u64())
        .max()
        .unwrap_or(0)
}

type Metric = (&'static str, &'static str, f64);

/// `{"name": {"value": v, "unit": u}, ...}`.
fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|&(name, unit, value)| {
        (
            name,
            Json::obj([("value", value.to_json()), ("unit", unit.to_json())]),
        )
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let w = workload::find(&args.workload).expect("checked in parse_args");
    let run_dir = args
        .work_dir
        .join(format!("{}-{}", w.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let outcome = measure(&args, w, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn measure(args: &Args, w: &Workload, run_dir: &Path) -> Result<(), String> {
    let host_ref_ms = workload::host_reference_ms();
    let built = Instant::now();
    let pool = workload::build_pool(w, args.seed, drive::CONNECTIONS);
    let pool_s = built.elapsed().as_secs_f64();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut cluster = None;
    for _ in 0..SETUP_REPEATS {
        // Dropping the previous cluster stops it before the next starts.
        drop(cluster.take());
        let (c, s) = daemons::start(w.topology, &args.bin_dir, run_dir)?;
        setups.push(s);
        cluster = Some(c);
    }
    let mut cluster = cluster.expect("at least one set-up");
    let setup_s = stats::median(&mut setups);

    // A short untimed run first, so the daemons' heaps and the page cache
    // are warm; its sessions are checked like the timed ones.
    let warmup = drive::run_closed_loop(&cluster.entry, &pool, WARMUP_S, w.stagger, 1, args.seed);

    // CPU, steal and peak memory cover the whole timed phase, tail included,
    // so CPU time and counted decisions come from the same sessions.
    let cpu_before = cluster.cpu();
    let ticks_before = daemons::host_ticks();
    let mut load = drive::run_closed_loop(
        &cluster.entry,
        &pool,
        args.seconds,
        w.stagger,
        drive::ALGORITHMS,
        args.seed,
    );
    let cpu = cluster.cpu_since(&cpu_before);
    let steal_pct = daemons::steal_pct_since(ticks_before);
    let rss_mib = cluster.rss_peak_mib();
    let (snapshots, router) = cluster.metrics()?;
    cluster.stop();

    let sheds = global_sum(&snapshots, "sheds");
    let rate_limited = global_sum(&snapshots, "rate_limited");
    let busy = global_sum(&snapshots, "busy_drops");
    let router_busy = router
        .as_ref()
        .and_then(|r| r.get("busy_rejects")?.as_u64())
        .unwrap_or(0);
    // A shed reply the client reads as a lost reply ends in a reconnect,
    // so such a shed is counted twice: as the reply and as the reconnect.
    let refused = sheds + rate_limited + busy + router_busy + load.reconnects;

    let tick_samples = load.tick_us.len();
    let drain_samples = load.drain_us.len();
    let server_cpu_s = cpu.daemons_s + cpu.router_s;
    // Wall-clock figures swing with the host's CPU steal and disk latency;
    // they are reported but not bounded.
    let wall_clock: [Metric; 5] = [
        ("decisions_per_s", "1/s", load.decisions_per_s),
        (
            "tick_p50_ms",
            "ms",
            stats::percentile(&mut load.tick_us, 50.0) / 1e3,
        ),
        (
            "tick_p99_ms",
            "ms",
            stats::percentile(&mut load.tick_us, 99.0) / 1e3,
        ),
        (
            "drain_p50_ms",
            "ms",
            stats::percentile(&mut load.drain_us, 50.0) / 1e3,
        ),
        ("server_cpu_s", "s", server_cpu_s),
    ];
    let mut correct = load.sessions_failed + warmup.sessions_failed == 0
        && load.errors.is_empty()
        && warmup.errors.is_empty();
    let mut attempted = load.attempted + warmup.attempted;
    let mut failed = load.failed + warmup.failed;

    let metrics: Vec<Metric> = if args.trace {
        let replayed = &pool[0][..w.replay.min(pool[0].len())];
        let spans = args
            .work_dir
            .join(format!("spans-{}-{}.jsonl", w.name, args.seed));
        let replay_requests: u64 = replayed.iter().map(|s| s.plan.len() as u64).sum();
        attempted += replay_requests;
        let replay = match replay::run(replayed, w.topology, run_dir, &spans) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("perfbench: replay failed: {e}");
                correct = false;
                failed += replay_requests;
                None
            }
        };
        let daemon_ns_per_request = cpu.daemons_s * 1e9 / load.replies.max(1) as f64;
        let layers = replay.unwrap_or_else(replay::ReplayReport::zeroed);
        let mut m: Vec<Metric> = layers.metrics;
        m.extend([
            (
                "server.request_us_mean",
                "us",
                histogram_mean(&snapshots, "request_micros"),
            ),
            (
                "server.cpu_us_per_request",
                "us",
                daemon_ns_per_request / 1e3,
            ),
            (
                "server.queue_high_water",
                "count",
                queue_high_water(&snapshots) as f64,
            ),
            ("server.busy_drops", "count", busy as f64),
            (
                "journal.append_ms",
                "ms",
                histogram_sum(&snapshots, "fsync_micros", "sum") as f64 / 1e3,
            ),
            (
                "journal.appends",
                "count",
                global_sum(&snapshots, "journal_appends") as f64,
            ),
            (
                "journal.syncs",
                "count",
                global_sum(&snapshots, "journal_syncs") as f64,
            ),
            (
                "journal.fsync_us_mean",
                "us",
                histogram_mean(&snapshots, "fsync_micros"),
            ),
            (
                "checkpoint.write_ms",
                "ms",
                histogram_sum(&snapshots, "checkpoint_micros", "sum") as f64 / 1e3,
            ),
            (
                "checkpoint.us_mean",
                "us",
                histogram_mean(&snapshots, "checkpoint_micros"),
            ),
            (
                "checkpoint.count",
                "count",
                global_sum(&snapshots, "checkpoints") as f64,
            ),
            (
                "checkpoint.bytes",
                "bytes",
                global_sum(&snapshots, "checkpoint_bytes") as f64,
            ),
            (
                "admit.admitted",
                "count",
                global_sum(&snapshots, "admitted") as f64,
            ),
            ("admit.refused", "count", (sheds + rate_limited) as f64),
            ("router.cpu_s", "s", cpu.router_s),
            ("shard.cpu_s", "s", cpu.daemons_s),
            ("retry.reconnects", "count", load.reconnects as f64),
            ("retry.resumes", "count", load.resumes as f64),
            ("retry.backoff_ms", "ms", load.backoff_s * 1e3),
            (
                "trace.coverage",
                "ratio",
                layers.layer_ns_per_request / daemon_ns_per_request.max(1e-9),
            ),
            ("client.decisions_per_s", "1/s", wall_clock[0].2),
            ("client.tick_p50_ms", "ms", wall_clock[1].2),
            ("client.tick_p99_ms", "ms", wall_clock[2].2),
            ("client.drain_p50_ms", "ms", wall_clock[3].2),
            ("server.cpu_s", "s", server_cpu_s),
            ("host.steal_pct", "%", steal_pct),
            ("host.ref_ms", "ms", host_ref_ms),
        ]);
        m
    } else {
        vec![
            (
                "decisions_per_cpu_s",
                "1/s",
                load.decisions as f64 / server_cpu_s.max(1e-9),
            ),
            ("server_rss_peak_mib", "MiB", rss_mib),
            ("setup_s", "s", setup_s),
        ]
    };

    for e in warmup.errors.iter().chain(&load.errors) {
        eprintln!("perfbench: {e}");
    }
    let diagnostics = Json::obj([
        ("type", "diagnostics".to_json()),
        ("workload", w.name.to_json()),
        ("why", w.why.to_json()),
        ("layers", w.layers.to_json()),
        ("seed", args.seed.to_json()),
        ("trace", Json::Bool(args.trace)),
        ("host_ref_ms", host_ref_ms.to_json()),
        ("pool_build_s", pool_s.to_json()),
        ("sessions", load.sessions.to_json()),
        ("sessions_failed", load.sessions_failed.to_json()),
        ("requests_sent", load.attempted.to_json()),
        (
            "requests_succeeded",
            (load.attempted - load.failed).to_json(),
        ),
        ("requests_refused", refused.to_json()),
        ("requests_failed", load.failed.to_json()),
        ("sheds", sheds.to_json()),
        ("rate_limited", rate_limited.to_json()),
        ("busy", (busy + router_busy).to_json()),
        ("client_reconnects", load.reconnects.to_json()),
        ("client_sheds_seen", load.sheds.to_json()),
        ("client_backoff_s", load.backoff_s.to_json()),
        ("steal_pct", steal_pct.to_json()),
        ("wall_clock", metrics_json(&wall_clock)),
        ("decisions", load.decisions.to_json()),
        ("wall_s", load.wall_s.to_json()),
        ("tick_samples", tick_samples.to_json()),
        ("drain_samples", drain_samples.to_json()),
        ("unmapped_sessions", load.unmapped_sessions.to_json()),
        (
            "request_us_p50_bucket",
            histogram_max(&snapshots, "request_micros", "p50").to_json(),
        ),
        (
            "request_us_p99_bucket",
            histogram_max(&snapshots, "request_micros", "p99").to_json(),
        ),
        ("errors", load.errors.to_json()),
    ]);
    println!("{}", diagnostics.to_string_compact());

    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", attempted.to_json()),
        ("failed", failed.to_json()),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.to_string_compact());
    Ok(())
}
