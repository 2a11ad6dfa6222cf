//! The paper's §3 side-claims, pinned as exact scenarios:
//!
//! * "if `G/T < 1`, our online algorithms all schedule every incoming job
//!   immediately";
//! * the two Lemma 3.1 branches with their closed-form costs;
//! * "if `T < G/T`, the immediate calibrations can be removed entirely"
//!   (we verify the weaker measurable form: removing them changes nothing
//!   on workloads whose intervals are never cheap);
//! * calibration instantaneity: a machine can be recalibrated between two
//!   job executions in successive time steps.

use calib_core::{Cost, Instance, InstanceBuilder, Job, Time};
use calib_online::{run_online, Alg1, Alg2, Alg3};

/// `G/T < 1`: every arrival while uncalibrated triggers an instant
/// calibration (the queue rule fires with |Q| = 1), so every job runs at its
/// release time.
#[test]
fn g_below_t_schedules_everything_at_release() {
    let inst = InstanceBuilder::new(10)
        .unit_jobs([0, 3, 14, 15, 40])
        .build()
        .unwrap();
    let g: Cost = 7; // G < T = 10
    for (name, res) in [
        ("alg1", run_online(&inst, g, &mut Alg1::new())),
        ("alg3", run_online(&inst, g, &mut Alg3::new())),
    ] {
        assert_eq!(
            res.flow,
            Cost::try_from(inst.n()).unwrap(),
            "{name}: every job should run at release when G/T < 1"
        );
    }
    // Alg2's weight rule needs Σw·T >= G — with unit weights and T > G it
    // also fires instantly.
    let res2 = run_online(&inst, g, &mut Alg2::new());
    assert_eq!(res2.flow, Cost::try_from(inst.n()).unwrap());
}

/// Lemma 3.1 branch 1, exact numbers: an algorithm that calibrates at 0
/// pays `2G + 2` while OPT pays `G + 3`.
#[test]
fn lemma31_branch1_exact_costs() {
    let t: Time = 12;
    let g: Cost = 6; // G/T <= 1 -> Alg1 calibrates at 0
    let inst = InstanceBuilder::new(t).unit_jobs([0, t]).build().unwrap();
    let res = run_online(&inst, g, &mut Alg1::new());
    assert_eq!(res.calibrations, 2);
    assert_eq!(res.flow, 2);
    assert_eq!(res.cost, 2 * g + 2);
    let opt = calib_offline::opt_online_cost(&inst, g).unwrap();
    assert_eq!(opt.cost, g + 3, "OPT calibrates at t = 1: flows 2 + 1");
}

/// Lemma 3.1 branch 2, exact numbers: on the job train an algorithm that
/// calibrates at 0 pays `T + G` (that IS optimal); one that waits pays at
/// least `2T + G`-ish. Pin the optimal side.
#[test]
fn lemma31_branch2_exact_costs() {
    let t: Time = 9;
    let g: Cost = 5;
    let inst = InstanceBuilder::new(t).unit_jobs(0..t).build().unwrap();
    let opt = calib_offline::opt_online_cost(&inst, g).unwrap();
    assert_eq!(
        opt.cost,
        g + Cost::try_from(t).unwrap(),
        "calibrate at 0, all at release"
    );
    // Alg1 with G/T <= 1 calibrates at 0 and achieves exactly OPT here.
    let res = run_online(&inst, g, &mut Alg1::new());
    assert_eq!(res.cost, opt.cost);
}

/// Instantaneous calibration: two jobs in successive steps can straddle two
/// back-to-back intervals (machine recalibrated "between" executions).
#[test]
fn recalibration_between_successive_steps() {
    // T = 1: every slot needs its own calibration; two successive jobs
    // imply calibrations at t and t+1 with no idle step between.
    let inst = InstanceBuilder::new(1).unit_jobs([5, 6]).build().unwrap();
    let res = run_online(&inst, 1, &mut Alg1::new());
    assert_eq!(res.calibrations, 2);
    assert_eq!(res.flow, 2);
    let starts = res.schedule.calibration_times();
    assert_eq!(starts, vec![5, 6]);
}

/// "If T < G/T, the immediate calibrations can be removed": in that regime
/// intervals triggered by the queue rule carry G/T jobs whose flow is at
/// least ~ (G/T)²/2 > G/2 when G > T², so the immediate rule never fires
/// and the two Alg1 variants coincide.
#[test]
fn immediate_rule_vacuous_when_t_below_g_over_t() {
    let t: Time = 3;
    let g: Cost = 30; // G/T = 10 > T
    for releases in [
        vec![0i64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 30, 31, 32],
        vec![0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50],
        (0..40).collect::<Vec<_>>(),
    ] {
        let jobs: Vec<Job> = releases
            .iter()
            .enumerate()
            .map(|(i, &r)| Job::unweighted(u32::try_from(i).unwrap(), r))
            .collect();
        let inst = Instance::single_machine(jobs, t).unwrap();
        let with_rule = run_online(&inst, g, &mut Alg1::new());
        let without = run_online(&inst, g, &mut Alg1::without_immediate_rule());
        assert_eq!(
            with_rule.schedule, without.schedule,
            "immediate rule should be vacuous for T < G/T on {releases:?}"
        );
        assert!(with_rule
            .intervals
            .iter()
            .all(|iv| iv.reason != calib_online::alg1::reason::IMMEDIATE));
    }
}

/// The paper's T >= 2 assumption is about its proofs; the implementation
/// handles T = 1 as Theorem 3.10's corner case does. All algorithms remain
/// correct (checker-clean, every job scheduled).
#[test]
fn t_equals_one_corner_case() {
    let inst = InstanceBuilder::new(1)
        .unit_jobs([0, 2, 4, 5])
        .build()
        .unwrap();
    for g in [1u128, 3, 10] {
        let r1 = run_online(&inst, g, &mut Alg1::new());
        assert_eq!(r1.schedule.assignments.len(), 4);
        let r3 = run_online(&inst, g, &mut Alg3::new());
        assert_eq!(r3.schedule.assignments.len(), 4);
    }
}
