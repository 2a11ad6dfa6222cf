//! Competitive-ratio validation: the online algorithms stay within their
//! proven factors of the exact offline optimum on randomized workloads
//! (experiments E1/E2 in miniature), and the structural invariants used in
//! the proofs hold on every run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use calib_core::{Cost, Instance, Job, Time};
use calib_offline::opt_online_cost;
use calib_online::{run_online, Alg1, Alg2, CalibrateImmediately, RunResult, SkiRentalBatch};

fn random_instance(rng: &mut StdRng, n: usize, span: i64, max_w: u64, t: i64) -> Instance {
    let mut releases: Vec<i64> = Vec::new();
    while releases.len() < n {
        let r = rng.gen_range(0..=span);
        if !releases.contains(&r) {
            releases.push(r);
        }
    }
    releases.sort_unstable();
    let jobs: Vec<Job> = releases
        .into_iter()
        .enumerate()
        .map(|(i, r)| Job::new(u32::try_from(i).unwrap(), r, rng.gen_range(1..=max_w)))
        .collect();
    Instance::single_machine(jobs, t).unwrap()
}

#[test]
fn alg1_within_3x_of_opt() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut worst: f64 = 0.0;
    for _ in 0..150 {
        let n = rng.gen_range(1..=12);
        let t = rng.gen_range(2..=6);
        let ni = i64::try_from(n).unwrap();
        let span = rng.gen_range(ni..=4 * ni + 4);
        let inst = random_instance(&mut rng, n, span, 1, t);
        for g in [1u128, 2, 5, 11, 30] {
            let alg = run_online(&inst, g, &mut Alg1::new());
            let opt = opt_online_cost(&inst, g).unwrap();
            let ratio = alg.cost as f64 / opt.cost as f64;
            worst = worst.max(ratio);
            assert!(
                alg.cost <= 3 * opt.cost,
                "Alg1 ratio {ratio:.3} > 3 on {inst:?} G={g} (alg {}, opt {})",
                alg.cost,
                opt.cost
            );
        }
    }
    // The bound should actually be approached somewhere above 1.
    assert!(worst > 1.0, "suspiciously perfect: worst ratio {worst}");
}

#[test]
fn alg2_within_12x_of_opt() {
    let mut rng = StdRng::seed_from_u64(22);
    let mut worst: f64 = 0.0;
    for _ in 0..150 {
        let n = rng.gen_range(1..=12);
        let t = rng.gen_range(2..=6);
        let ni = i64::try_from(n).unwrap();
        let span = rng.gen_range(ni..=4 * ni + 4);
        let inst = random_instance(&mut rng, n, span, 20, t);
        for g in [1u128, 3, 10, 40] {
            let alg = run_online(&inst, g, &mut Alg2::new());
            let opt = opt_online_cost(&inst, g).unwrap();
            let ratio = alg.cost as f64 / opt.cost as f64;
            worst = worst.max(ratio);
            assert!(
                alg.cost <= 12 * opt.cost,
                "Alg2 ratio {ratio:.3} > 12 on {inst:?} G={g}"
            );
        }
    }
    assert!(worst > 1.0);
}

/// Lemma 3.5: in every interval Algorithm 2 schedules, the flow *excluding
/// each job's unavoidable final unit* (`Σ w_j (t_j − r_j)`) is below `2G`.
#[test]
fn alg2_interval_adjusted_flow_below_2g() {
    let mut rng = StdRng::seed_from_u64(33);
    for _ in 0..120 {
        let n = rng.gen_range(1..=18);
        let t = rng.gen_range(2..=7);
        let ni = i64::try_from(n).unwrap();
        let span = rng.gen_range(ni..=3 * ni + 2);
        let inst = random_instance(&mut rng, n, span, 15, t);
        for g in [2u128, 7, 25, 80] {
            let res = run_online(&inst, g, &mut Alg2::new());
            for interval in &res.intervals {
                let adjusted: Cost = interval
                    .jobs
                    .iter()
                    .map(|(j, slot)| {
                        Cost::from(j.weight) * Cost::try_from(slot - j.release).unwrap()
                    })
                    .sum();
                assert!(
                    adjusted < 2 * g,
                    "Lemma 3.5 violated: adjusted flow {adjusted} >= 2G={} in interval at {} on {inst:?}",
                    2 * g,
                    interval.start
                );
            }
        }
    }
}

/// The naive baselines are feasible everywhere but have no constant
/// competitive ratio; each loses badly on its nemesis workload while Alg1
/// stays within its factor 3.
#[test]
fn baselines_lose_on_their_nemesis_workloads() {
    // Nemesis of CalibrateImmediately: expensive calibrations, spread-out
    // jobs (it pays G per job).
    let spread = Instance::single_machine(
        (0..10)
            .map(|i| Job::unweighted(i, 20 * i64::from(i)))
            .collect(),
        3,
    )
    .unwrap();
    let g = 500u128;
    let naive = run_online(&spread, g, &mut CalibrateImmediately);
    let alg1 = run_online(&spread, g, &mut Alg1::new());
    let opt = opt_online_cost(&spread, g).unwrap();
    assert_eq!(naive.calibrations, 10);
    assert!(
        naive.cost > 2 * opt.cost,
        "naive {} vs opt {}",
        naive.cost,
        opt.cost
    );
    assert!(alg1.cost <= 3 * opt.cost);

    // Nemesis of pure ski-rental: a big simultaneous burst — Alg1's queue
    // rule calibrates immediately, ski-rental lets flow accumulate to G.
    let burst =
        Instance::single_machine((0..30).map(|i| Job::unweighted(i, 0)).collect(), 30).unwrap();
    // G = 900 = 30 jobs * T: the queue rule fires at t = 0 for Alg1 while
    // ski-rental waits for accumulated flow 900.
    let g2 = 900u128;
    let ski = run_online(&burst, g2, &mut SkiRentalBatch);
    let alg1b = run_online(&burst, g2, &mut Alg1::new());
    assert!(
        ski.flow > alg1b.flow,
        "ski flow {} vs alg1 {}",
        ski.flow,
        alg1b.flow
    );
    assert!(
        ski.cost > alg1b.cost,
        "ski {} vs alg1 {}",
        ski.cost,
        alg1b.cost
    );

    // Both baselines remain within-model correct (run_online checks), and
    // random mixes stay feasible too.
    let mut rng = StdRng::seed_from_u64(44);
    for _ in 0..20 {
        let inst = random_instance(&mut rng, 8, 24, 1, 4);
        let g = u128::from(rng.gen_range(2u64..=40));
        let _ = run_online(&inst, g, &mut CalibrateImmediately);
        let _ = run_online(&inst, g, &mut SkiRentalBatch);
    }
}

/// Determinism: identical runs produce identical schedules and traces.
#[test]
fn engine_runs_are_deterministic() {
    let mut rng = StdRng::seed_from_u64(55);
    for _ in 0..20 {
        let inst = random_instance(&mut rng, 10, 25, 9, 4);
        let a = run_online(&inst, 13, &mut Alg2::new());
        let b = run_online(&inst, 13, &mut Alg2::new());
        assert_eq!(a.schedule, b.schedule);
        let trace = |r: &RunResult| -> Vec<(Time, String)> {
            r.intervals
                .iter()
                .map(|iv| (iv.start, iv.reason.to_string()))
                .collect()
        };
        assert_eq!(trace(&a), trace(&b));
    }
}
