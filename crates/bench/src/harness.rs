//! A small self-contained measurement harness (no external bench framework).
//!
//! Each `benches/*.rs` target builds a [`Bench`] suite, times closures with
//! warmup + repeated samples, prints a human-readable line per measurement,
//! and on [`Bench::finish`] writes the whole suite as machine-readable JSON
//! to `BENCH_<suite>.json` (override the directory with `BENCH_OUT_DIR`).
//!
//! Timing strategy: one calibration call picks an iteration count so each
//! sample spans at least ~1 ms (cheap closures are batched, expensive ones
//! run once per sample), then `samples` samples are taken and summarized by
//! min/median/mean/max nanoseconds per call.

use std::hint::black_box;
use std::time::Instant;

use calib_core::json::Json;

/// Target wall-clock per sample; cheap closures are batched up to this.
const TARGET_SAMPLE_NS: u64 = 1_000_000;
/// Cap on the batching factor, so calibration mispredictions stay bounded.
const MAX_ITERS: u64 = 10_000;

/// Median ns of a fixed deterministic CPU workload (seeded xorshift fill +
/// sort + fold), stamped into each suite file as `gate_reference_ns` so the
/// bench gate can divide out machine-speed differences between the machine
/// that recorded the baseline and the one producing fresh results. Measured
/// at suite-write time, so the stamp reflects the same machine state (turbo,
/// contention, throttling) as the suite's own medians. The workload mixes
/// branchy and memory work to track the benched algorithms better than a
/// pure ALU spin.
pub fn reference_workload_ns() -> u64 {
    fn once() -> u64 {
        let mut state = 0x2017_c0ffee_u64;
        let mut xs: Vec<u64> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        xs.sort_unstable();
        xs.iter().fold(0u64, |acc, x| acc.rotate_left(1) ^ x)
    }
    // Warm up, then take the *minimum* over many batched samples: the min is
    // the most stable estimator of raw machine speed under scheduler noise,
    // and any low bias cancels because both sides of the ratio use it.
    black_box(once());
    (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..32 {
                black_box(once());
            }
            (start.elapsed().as_nanos() as u64 / 32).max(1)
        })
        .min()
        .expect("at least one sample")
        .max(1)
}

/// One timed closure's summary statistics (nanoseconds per call).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Measurement label within the suite.
    pub name: String,
    /// Fastest sample.
    pub min_ns: u64,
    /// Median sample.
    pub median_ns: u64,
    /// Mean over samples.
    pub mean_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Number of samples taken.
    pub samples: u32,
    /// Iterations batched per sample.
    pub iters: u64,
}

impl Measurement {
    /// JSON object form, one field per statistic.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("min_ns", Json::UInt(self.min_ns as u128)),
            ("median_ns", Json::UInt(self.median_ns as u128)),
            ("mean_ns", Json::UInt(self.mean_ns as u128)),
            ("max_ns", Json::UInt(self.max_ns as u128)),
            ("samples", Json::UInt(self.samples as u128)),
            ("iters", Json::UInt(self.iters as u128)),
        ])
    }
}

/// A named suite of measurements, written out as `BENCH_<suite>.json`.
pub struct Bench {
    suite: &'static str,
    samples: u32,
    results: Vec<Measurement>,
}

impl Bench {
    /// A new suite. `--quick` (see [`crate::quick_mode`]) shrinks sampling.
    pub fn new(suite: &'static str) -> Self {
        let samples = if crate::quick_mode() { 5 } else { 15 };
        println!("suite {suite} ({samples} samples/measurement)");
        Bench {
            suite,
            samples,
            results: Vec::new(),
        }
    }

    /// Overrides the per-measurement sample count.
    pub fn samples(mut self, samples: u32) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Changes the sample count for the measurements that follow, e.g. to
    /// sample rows that a gate compares as a ratio more densely than the
    /// rest of the suite.
    pub fn set_samples(&mut self, samples: u32) {
        self.samples = samples.max(1);
    }

    /// Times `f`, prints one summary line, and records the measurement.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, mut f: F) -> &Measurement {
        let mut call = || {
            black_box(f());
        };
        self.bench_interleaved(&mut [(name, &mut call)]);
        self.results.last().expect("just pushed")
    }

    /// Times several closures with their samples interleaved — sample `i`
    /// of every row is taken before sample `i + 1` of any — so rows that
    /// are compared with each other (a scaling pair) see the same host
    /// state, whatever noise comes and goes during the run. Records one
    /// measurement per row, in order.
    pub fn bench_interleaved(&mut self, rows: &mut [(&str, &mut dyn FnMut())]) {
        // Calibrate: batch cheap closures so one sample spans ~1 ms.
        let iters: Vec<u64> = rows
            .iter_mut()
            .map(|(_, f)| {
                let start = Instant::now();
                f();
                let once_ns = (start.elapsed().as_nanos() as u64).max(1);
                let iters = (TARGET_SAMPLE_NS / once_ns).clamp(1, MAX_ITERS);
                // One warmup sample beyond calibration.
                for _ in 0..iters {
                    f();
                }
                iters
            })
            .collect();
        let mut per_call: Vec<Vec<u64>> = vec![Vec::new(); rows.len()];
        for _ in 0..self.samples {
            for ((_, f), (&iters, out)) in rows.iter_mut().zip(iters.iter().zip(&mut per_call)) {
                let start = Instant::now();
                for _ in 0..iters {
                    f();
                }
                out.push((start.elapsed().as_nanos() as u64 / iters).max(1));
            }
        }
        let samples = self.samples;
        for ((name, _), (iters, mut per_call)) in rows.iter().zip(iters.into_iter().zip(per_call)) {
            per_call.sort_unstable();
            let m = Measurement {
                name: name.to_string(),
                min_ns: per_call[0],
                median_ns: per_call[per_call.len() / 2],
                mean_ns: per_call.iter().sum::<u64>() / samples as u64,
                max_ns: per_call[per_call.len() - 1],
                samples,
                iters,
            };
            println!(
                "  {:<40} median {:>12} ns/call  (min {}, max {}, x{} batched)",
                m.name, m.median_ns, m.min_ns, m.max_ns, m.iters
            );
            self.results.push(m);
        }
    }

    /// The measurements recorded so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Suite JSON: `{"suite": ..., "results": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("suite", Json::Str(self.suite.into())),
            (
                "results",
                Json::Arr(self.results.iter().map(|m| m.to_json()).collect()),
            ),
        ])
    }

    /// Writes `BENCH_<suite>.json` (into `BENCH_OUT_DIR` when set, else the
    /// working directory) and reports where it went. The file additionally
    /// carries a `gate_reference_ns` stamp (see [`reference_workload_ns`])
    /// timed here, alongside the suite's own measurements, so the bench gate
    /// can normalize away machine-speed differences.
    pub fn finish(self) {
        let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".into());
        let path = format!("{dir}/BENCH_{}.json", self.suite);
        let mut json = self.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.push((
                "gate_reference_ns".into(),
                Json::UInt(reference_workload_ns() as u128),
            ));
        }
        match std::fs::write(&path, json.to_string_pretty()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_serializes() {
        let mut b = Bench::new("selftest").samples(3);
        b.bench("square", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let m = &b.results()[0];
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert!(m.iters >= 1);
        let j = b.to_json();
        assert_eq!(j.get("suite").and_then(|s| s.as_str()), Some("selftest"));
        assert_eq!(j.get("results").unwrap().as_arr().unwrap().len(), 1);
    }
}
