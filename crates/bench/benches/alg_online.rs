//! Benches for the online algorithms: throughput of full runs on the
//! standard workload families (engine + algorithm, end to end), plus
//! engine-only and checker-only rows under overload, where thousands of jobs
//! wait at once. `bench_gate` holds the overload rows to linear scaling
//! (`time(20000) / time(5000)`).

use calib_bench::harness::Bench;
use std::hint::black_box;

use calib_core::{check_schedule, Instance, Schedule};
use calib_online::{
    run_online, run_online_with, Alg1, Alg2, Alg3, EngineConfig, EngineSession, OnlineScheduler,
};
use calib_serve::Algorithm;
use calib_workloads::{arrivals, make_instance, WeightModel};

/// Calibration length and cost of the overload rows: Poisson arrivals at
/// 0.8 jobs per step per machine outrun what the threshold rules serve.
const OVERLOAD_T: i64 = 4;
const OVERLOAD_G: u128 = 30;

/// An overloaded tenant, with the parameters of the end-to-end benchmark's
/// `overload` workload: alg2 draws weights 1..=9, alg3 runs two machines.
fn overloaded(n: usize, machines: usize, weights: WeightModel) -> Instance {
    let rate = if machines == 1 { 0.8 } else { 1.6 };
    make_instance(
        arrivals::poisson(11, n, rate, false),
        weights,
        11,
        machines,
        OVERLOAD_T,
    )
}

/// Engine plus scheduler only: submit everything, drain, no checker.
fn engine_drain(inst: &Instance, scheduler: &mut dyn OnlineScheduler) -> usize {
    let mut session = EngineSession::new(
        inst.machines(),
        inst.cal_len(),
        OVERLOAD_G,
        EngineConfig::default(),
    )
    .expect("machines > 0");
    session.submit(inst.jobs()).expect("fresh session");
    session.drain(scheduler).expect("drain").len()
}

fn main() {
    let mut b = Bench::new("alg_online");

    for &n in &[100usize, 1000, 10_000] {
        let inst = make_instance(
            arrivals::poisson(7, n, 0.5, true),
            WeightModel::Unit,
            7,
            1,
            8,
        );
        b.bench(&format!("alg1/{n}"), || {
            run_online(&inst, 40, &mut Alg1::new()).cost
        });
    }

    for &n in &[100usize, 1000, 10_000] {
        let inst = make_instance(
            arrivals::poisson(8, n, 0.5, true),
            WeightModel::Pareto {
                alpha: 1.2,
                cap: 64,
            },
            8,
            1,
            8,
        );
        b.bench(&format!("alg2/{n}"), || {
            run_online(&inst, 40, &mut Alg2::new()).cost
        });
    }

    for &p in &[2usize, 4, 8] {
        let inst = make_instance(
            arrivals::bursty(50, 20, 60, false),
            WeightModel::Unit,
            9,
            p,
            10,
        );
        b.bench(&format!("alg3/machines/{p}"), || {
            run_online(&inst, 30, &mut Alg3::new()).cost
        });
    }

    // Sparse workload with huge dead stretches: event skipping should make
    // the run orders of magnitude cheaper than slot-by-slot stepping.
    let sparse = make_instance(
        (0..60).map(|i| i * 5_000).collect(),
        WeightModel::Unit,
        10,
        1,
        16,
    );
    b.bench("engine_skipping/skip", || {
        run_online_with(&sparse, 40, &mut Alg1::new(), EngineConfig::default()).cost
    });
    b.bench("engine_skipping/no_skip", || {
        run_online_with(&sparse, 40, &mut Alg1::new(), EngineConfig::no_skip()).cost
    });

    // The gated scaling pairs: each family's two sizes are sampled
    // interleaved (one call per sample), 15 times even in `--quick` mode,
    // so both rows of a pair run under the same host and allocator state.
    // Sampled one row after the other, the small session reuses freed heap
    // while the large one touches fresh pages; on a 2-vCPU host that moved
    // the ratios from about 4.3x to 5.3-6.2x.
    b.set_samples(15);
    let families = [
        (Algorithm::Alg1, 1, WeightModel::Unit),
        (Algorithm::Alg2, 1, WeightModel::Uniform { max: 9 }),
        (Algorithm::Alg3, 2, WeightModel::Unit),
    ];
    for (algorithm, machines, weights) in families {
        let small = overloaded(5_000, machines, weights);
        let large = overloaded(20_000, machines, weights);
        let name = |n: usize| format!("overload/{}/{n}", algorithm.name());
        b.bench_interleaved(&mut [
            (&name(small.n()), &mut || {
                black_box(engine_drain(&small, algorithm.scheduler().as_mut()));
            }),
            (&name(large.n()), &mut || {
                black_box(engine_drain(&large, algorithm.scheduler().as_mut()));
            }),
        ]);
    }
    // The drain-time checker and flow accounting alone, on the schedule the
    // engine produced.
    let [small, large] = [5_000, 20_000].map(|n| {
        let inst = overloaded(n, 1, WeightModel::Uniform { max: 9 });
        let schedule = run_online(&inst, OVERLOAD_G, &mut Alg2::new()).schedule;
        (inst, schedule)
    });
    let check = |(inst, schedule): &(Instance, Schedule)| {
        black_box(check_schedule(inst, schedule).is_ok());
        black_box(schedule.total_weighted_flow(inst));
    };
    b.bench_interleaved(&mut [
        (&format!("checker/{}", small.0.n()), &mut || check(&small)),
        (&format!("checker/{}", large.0.n()), &mut || check(&large)),
    ]);

    b.finish();
}
