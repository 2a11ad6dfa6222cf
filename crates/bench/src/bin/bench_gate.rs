//! Bench regression gate: compares freshly produced `BENCH_*.json` files
//! against the committed baseline under `results/bench_baseline/` and fails
//! when any suite's median slows down past the threshold.
//!
//! Per measurement, the score is `fresh.median_ns / baseline.median_ns`;
//! per suite, the score is the *median* of those ratios — robust to one
//! noisy measurement, sensitive to a suite-wide slowdown. The default
//! threshold (1.25, i.e. >25% slower) leaves headroom for shared-runner
//! jitter; genuine regressions from algorithmic changes are well past it.
//!
//! Baselines may be recorded on a different machine than the gate runs on
//! (committed once, checked on CI runners), so raw `median_ns` comparisons
//! would conflate machine speed with regressions. To cancel that, the bench
//! harness stamps every suite file with `gate_reference_ns` — a fixed
//! reference workload timed right when the suite was benched (see
//! `calib_bench::harness::reference_workload_ns`) — and the gate divides
//! each suite score by the machine-speed ratio `fresh_ref / baseline_ref`.
//! Only the *relative* slowdown vs the reference workload is gated.
//!
//! ```text
//! cargo run --release -p calib-bench --bin bench_gate -- --fresh-dir crates/bench
//! cargo run --release -p calib-bench --bin bench_gate -- --update   # refresh baseline
//! ```
//!
//! Besides the baseline comparison, two machine-independent families of
//! checks run on the fresh files alone: overhead ratios between paired
//! measurements (`OVERHEAD_CHECKS`) and scaling ratios between one
//! workload at two sizes (`SCALING_CHECKS`).
//!
//! Exit status: 0 on pass, 1 on regression, 2 on usage/IO errors.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use calib_core::json::Json;

struct Options {
    baseline_dir: PathBuf,
    fresh_dir: PathBuf,
    threshold: f64,
    update: bool,
}

const USAGE: &str = "\
bench_gate: compare fresh BENCH_*.json against the committed baseline

OPTIONS:
    --baseline-dir <dir>  committed baseline [default: results/bench_baseline]
    --fresh-dir <dir>     freshly generated files [default: crates/bench]
    --threshold <float>   max allowed suite median ratio [default: 1.25]
    --update              copy fresh files over the baseline instead of gating
";

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn parse_args() -> Result<Options, String> {
    let root = workspace_root();
    let mut opts = Options {
        baseline_dir: root.join("results/bench_baseline"),
        fresh_dir: root.join("crates/bench"),
        threshold: 1.25,
        update: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--baseline-dir" => opts.baseline_dir = PathBuf::from(value("--baseline-dir")?),
            "--fresh-dir" => opts.fresh_dir = PathBuf::from(value("--fresh-dir")?),
            "--threshold" => {
                let v = value("--threshold")?;
                opts.threshold = v
                    .parse()
                    .map_err(|_| format!("`{v}` is not a valid threshold"))?;
            }
            "--update" => opts.update = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// One parsed suite file: measurement medians plus the optional
/// `gate_reference_ns` stamp written by `--update`.
struct Suite {
    /// `(measurement name, median_ns)` pairs.
    medians: Vec<(String, u64)>,
    /// `(measurement name, min_ns)` pairs (used by the intra-suite
    /// overhead checks, where the min is the stable estimator).
    mins: Vec<(String, u64)>,
    /// Reference-workload timing on the machine that produced this file.
    reference_ns: Option<u64>,
}

fn read_suite(path: &Path) -> Result<Suite, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    let results = json
        .field("results")
        .map_err(|e| format!("{}: {e}", path.display()))?
        .as_arr()
        .ok_or_else(|| format!("{}: `results` must be an array", path.display()))?;
    let mut out = Vec::new();
    let mut mins = Vec::new();
    for r in results {
        let name = r
            .field("name")
            .map_err(|e| format!("{}: {e}", path.display()))?
            .as_str()
            .ok_or_else(|| format!("{}: `name` must be a string", path.display()))?
            .to_string();
        let median = r
            .field("median_ns")
            .map_err(|e| format!("{}: {e}", path.display()))?
            .as_u64()
            .ok_or_else(|| format!("{}: `median_ns` must be a u64", path.display()))?;
        if let Some(min) = r.get("min_ns").and_then(|v| v.as_u64()) {
            mins.push((name.clone(), min));
        }
        out.push((name, median));
    }
    let reference_ns = json.get("gate_reference_ns").and_then(|v| v.as_u64());
    Ok(Suite {
        medians: out,
        mins,
        reference_ns,
    })
}

/// All `BENCH_*.json` files in `dir`, keyed by file name.
fn suite_files(dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out: Vec<(String, PathBuf)> = fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_string();
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some((name, p))
        })
        .collect();
    out.sort();
    Ok(out)
}

fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn run() -> Result<bool, String> {
    let opts = parse_args()?;

    if opts.update {
        fs::create_dir_all(&opts.baseline_dir)
            .map_err(|e| format!("creating {}: {e}", opts.baseline_dir.display()))?;
        let fresh = suite_files(&opts.fresh_dir)?;
        if fresh.is_empty() {
            return Err(format!(
                "no BENCH_*.json under {} — run `cargo bench -p calib-bench -- --quick` first",
                opts.fresh_dir.display()
            ));
        }
        for (name, path) in fresh {
            if read_suite(&path)?.reference_ns.is_none() {
                println!(
                    "WARN {name}: no gate_reference_ns stamp (stale format?) — \
                     re-run `cargo bench -p calib-bench -- --quick` to regenerate"
                );
            }
            let dest = opts.baseline_dir.join(&name);
            fs::copy(&path, &dest).map_err(|e| format!("copying {name}: {e}"))?;
            println!("baseline <- {name}");
        }
        return Ok(true);
    }

    let baseline = suite_files(&opts.baseline_dir)?;
    if baseline.is_empty() {
        return Err(format!(
            "no baseline under {} — run with --update to create one",
            opts.baseline_dir.display()
        ));
    }

    let mut ok = true;
    for (name, base_path) in &baseline {
        let fresh_path = opts.fresh_dir.join(name);
        if !fresh_path.exists() {
            println!("FAIL {name}: missing from {}", opts.fresh_dir.display());
            ok = false;
            continue;
        }
        let base = read_suite(base_path)?;
        let fresh = read_suite(&fresh_path)?;
        // Cancel machine-speed differences: a 2x-slower machine makes both
        // the suite medians and the reference workload ~2x slower, so the
        // normalized score only moves on relative regressions. Both stamps
        // were timed by the harness right when their suite was benched, so
        // each reflects the machine state its medians were measured under.
        let machine_ratio = match (fresh.reference_ns, base.reference_ns) {
            (Some(fresh_ref), Some(base_ref)) if base_ref > 0 && fresh_ref > 0 => {
                fresh_ref as f64 / base_ref as f64
            }
            _ => {
                println!(
                    "WARN {name}: missing gate_reference_ns stamp (fresh: {:?}, baseline: \
                     {:?}) — comparing raw cross-machine timings",
                    fresh.reference_ns, base.reference_ns
                );
                1.0
            }
        };
        let mut ratios = Vec::new();
        let mut detail = Vec::new();
        for (bench, base_median) in &base.medians {
            match fresh.medians.iter().find(|(n, _)| n == bench) {
                Some((_, fresh_median)) if *base_median > 0 => {
                    let r = *fresh_median as f64 / *base_median as f64;
                    ratios.push(r);
                    detail.push(format!(
                        "{bench}: {base_median} -> {fresh_median} ({r:.2}x raw)"
                    ));
                }
                Some(_) => {} // zero baseline median: skip rather than divide
                None => {
                    println!("FAIL {name}: measurement `{bench}` disappeared");
                    ok = false;
                }
            }
        }
        if ratios.is_empty() {
            println!("FAIL {name}: no comparable measurements");
            ok = false;
            continue;
        }
        let score = median_of(ratios) / machine_ratio;
        if score > opts.threshold {
            ok = false;
            println!(
                "FAIL {name}: normalized suite median ratio {score:.2}x > {:.2}x \
                 (machine ratio {machine_ratio:.2}x)",
                opts.threshold
            );
            for d in detail {
                println!("     {d}");
            }
        } else {
            println!(
                "PASS {name}: normalized suite median ratio {score:.2}x \
                 (machine ratio {machine_ratio:.2}x)"
            );
        }
    }
    if !overhead_checks(&opts.fresh_dir)? {
        ok = false;
    }
    if !scaling_checks(&opts.fresh_dir)? {
        ok = false;
    }
    Ok(ok)
}

/// Intra-suite overhead bounds: both medians come from the same fresh run
/// on the same machine, so these are compared raw — no baseline and no
/// machine-speed normalization. Each entry is
/// `(suite file, measurement, baseline measurement, max ratio)`.
const OVERHEAD_CHECKS: [(&str, &str, &str, f64); 3] = [
    // The always-on metrics registry plus a live 2ms snapshot stream must
    // stay within 2% of the plain serve path.
    (
        "BENCH_serve.json",
        "metrics_overhead",
        "serve_stream_session",
        1.02,
    ),
    // Cadence checkpoints + idle compaction must stay within 5% of the
    // plain journaled path (fsync off on both sides).
    (
        "BENCH_serve.json",
        "serve_stream_checkpointed",
        "serve_stream_journaled",
        1.05,
    ),
    // The admission gate (armed, never firing) must stay within 3% of
    // the plain journaled path: one leaf-mutex check per work request.
    (
        "BENCH_serve.json",
        "serve_stream_admitted",
        "serve_stream_journaled",
        1.03,
    ),
];

fn overhead_checks(fresh_dir: &Path) -> Result<bool, String> {
    let mut ok = true;
    for (file, num, den, max_ratio) in OVERHEAD_CHECKS {
        let path = fresh_dir.join(file);
        if !path.exists() {
            println!("FAIL {file}: missing, cannot check `{num}` overhead");
            ok = false;
            continue;
        }
        let suite = read_suite(&path)?;
        // The *minimum* sample, not the median: scheduler noise is strictly
        // additive, so the min is the stable estimator of intrinsic cost on
        // both sides of the ratio (median jitter at this measurement's
        // scale is larger than the bound being enforced).
        let min = |name: &str| suite.mins.iter().find(|(n, _)| n == name).map(|(_, m)| *m);
        let (Some(num_ns), Some(den_ns)) = (min(num), min(den)) else {
            println!("FAIL {file}: `{num}` or `{den}` measurement is missing");
            ok = false;
            continue;
        };
        if den_ns == 0 {
            println!("FAIL {file}: `{den}` median is zero");
            ok = false;
            continue;
        }
        let ratio = num_ns as f64 / den_ns as f64;
        if ratio > max_ratio {
            println!(
                "FAIL {file}: `{num}` is {ratio:.3}x of `{den}` \
                 ({num_ns} vs {den_ns} ns), over the {max_ratio:.2}x bound"
            );
            ok = false;
        } else {
            println!(
                "PASS {file}: `{num}` is {ratio:.3}x of `{den}` \
                 (bound {max_ratio:.2}x)"
            );
        }
    }
    Ok(ok)
}

/// Intra-suite scaling bounds, machine-independent like the overhead
/// checks: `min(large) / min(small)` for the same workload family at two
/// sizes. Each entry is `(suite file, family, small n, large n, max ratio)`;
/// the measurements are `<family>/<n>`. Quadrupling `n` costs 4x for a
/// linear path and about 16x for a quadratic one, so a bound of 6 admits
/// `n log n` and noise but fails any quadratic regression.
const SCALING_CHECKS: [(&str, &str, u64, u64, u64); 4] = [
    // Engine + scheduler under overload: no queue rescans per event.
    ("BENCH_alg_online.json", "overload/alg1", 5_000, 20_000, 6),
    ("BENCH_alg_online.json", "overload/alg2", 5_000, 20_000, 6),
    ("BENCH_alg_online.json", "overload/alg3", 5_000, 20_000, 6),
    // The drain-time checker and flow accounting: no per-job linear lookup.
    ("BENCH_alg_online.json", "checker", 5_000, 20_000, 6),
];

fn scaling_checks(fresh_dir: &Path) -> Result<bool, String> {
    let mut ok = true;
    for (file, family, small, large, max_ratio) in SCALING_CHECKS {
        let path = fresh_dir.join(file);
        if !path.exists() {
            println!("FAIL {file}: missing, cannot check `{family}` scaling");
            ok = false;
            continue;
        }
        let suite = read_suite(&path)?;
        // Minimum samples, as in the overhead checks.
        let min = |n: u64| {
            let name = format!("{family}/{n}");
            suite
                .mins
                .iter()
                .find(|(m, _)| *m == name)
                .map(|(_, ns)| *ns)
        };
        let (Some(small_ns), Some(large_ns)) = (min(small), min(large)) else {
            println!("FAIL {file}: `{family}/{small}` or `{family}/{large}` is missing");
            ok = false;
            continue;
        };
        // Integer arithmetic throughout: the ratio in hundredths.
        let centi = large_ns.saturating_mul(100) / small_ns.max(1);
        let ratio = format!("{}.{:02}x", centi / 100, centi % 100);
        let growth = large / small;
        if large_ns > small_ns.saturating_mul(max_ratio) {
            println!(
                "FAIL {file}: `{family}` grows {ratio} for {growth}x the jobs \
                 ({small_ns} -> {large_ns} ns), over the {max_ratio}x bound"
            );
            ok = false;
        } else {
            println!(
                "PASS {file}: `{family}` grows {ratio} for {growth}x the jobs \
                 (bound {max_ratio}x)"
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench gate failed: see FAIL lines above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
