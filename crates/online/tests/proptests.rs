//! Property-based tests for the online crate: arbitrary job streams,
//! arbitrary parameters, three invariants —
//!
//! 1. every run produces a checker-clean schedule covering all jobs
//!    (`run_online` validates internally; these tests re-check explicitly);
//! 2. event-skipping is semantically invisible: the skipping engine and the
//!    step-by-step engine produce identical schedules and traces;
//! 3. cost accounting is exact: `cost = G·C + Σ w_j (t_j + 1 − r_j)`.

use proptest::prelude::*;

use calib_core::{check_schedule, Cost, Instance, Job, Time};
use calib_online::{
    run_online_with, Alg1, Alg2, Alg3, CalibrateImmediately, EngineConfig, OnlineScheduler,
    RunResult, SkiRentalBatch,
};

fn arb_instance(
    max_n: usize,
    max_r: i64,
    max_w: u64,
    machines: usize,
) -> impl Strategy<Value = Instance> {
    prop::collection::vec((0..=max_r, 1..=max_w), 1..=max_n).prop_map(move |specs| {
        let jobs: Vec<Job> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (r, w))| Job::new(i as u32, r, w))
            .collect();
        Instance::new(jobs, machines, 3).unwrap()
    })
}

fn check_both_modes(
    inst: &Instance,
    g: Cost,
    mk: &mut dyn FnMut() -> Box<dyn OnlineScheduler>,
) -> Result<(), TestCaseError> {
    let skip = run_online_with(inst, g, mk().as_mut(), EngineConfig::default());
    let slow = run_online_with(inst, g, mk().as_mut(), EngineConfig::no_skip());
    check_schedule(inst, &skip.schedule).unwrap();
    prop_assert_eq!(
        &skip.schedule,
        &slow.schedule,
        "skipping changed the schedule"
    );
    let trace = |r: &RunResult| -> Vec<(Time, String)> {
        r.intervals
            .iter()
            .map(|iv| (iv.start, iv.reason.to_string()))
            .collect()
    };
    prop_assert_eq!(trace(&skip), trace(&slow), "skipping changed the decisions");
    prop_assert_eq!(skip.cost, g * skip.calibrations as Cost + skip.flow);
    prop_assert_eq!(skip.schedule.assignments.len(), inst.n());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn alg1_skipping_is_invisible(
        inst in arb_instance(12, 30, 1, 1),
        g in 1u128..60,
    ) {
        check_both_modes(&inst, g, &mut || Box::new(Alg1::new()))?;
    }

    #[test]
    fn alg1_no_immediate_skipping_is_invisible(
        inst in arb_instance(12, 30, 1, 1),
        g in 1u128..60,
    ) {
        check_both_modes(&inst, g, &mut || Box::new(Alg1::without_immediate_rule()))?;
    }

    #[test]
    fn alg2_skipping_is_invisible(
        inst in arb_instance(12, 30, 9, 1),
        g in 1u128..60,
    ) {
        check_both_modes(&inst, g, &mut || Box::new(Alg2::new()))?;
        check_both_modes(&inst, g, &mut || Box::new(Alg2::lightest_first()))?;
    }

    #[test]
    fn alg3_skipping_is_invisible(
        inst in arb_instance(12, 25, 1, 2),
        g in 1u128..40,
    ) {
        check_both_modes(&inst, g, &mut || Box::new(Alg3::new()))?;
    }

    #[test]
    fn baselines_skipping_is_invisible(
        inst in arb_instance(10, 25, 4, 1),
        g in 1u128..40,
    ) {
        check_both_modes(&inst, g, &mut || Box::new(CalibrateImmediately))?;
        check_both_modes(&inst, g, &mut || Box::new(SkiRentalBatch))?;
    }

    /// The online cost is monotone-ish sane: zero-G runs schedule everything
    /// with pure flow cost at least n (each job incurs >= its weight).
    #[test]
    fn zero_g_costs_at_least_total_weight(
        inst in arb_instance(10, 20, 5, 1),
    ) {
        let res = run_online_with(&inst, 0, &mut Alg1::new(), EngineConfig::default());
        prop_assert!(res.flow >= inst.total_weight());
    }
}
