//! The Lemma 3.1 adaptive adversary: no deterministic online algorithm is
//! better than `(2 − o(1))`-competitive on a single machine with unweighted
//! jobs.
//!
//! The adversary releases a job at time 0 and watches whether the algorithm
//! calibrates at time 0:
//!
//! * if it does, one more job is released at time `T` — the algorithm pays
//!   `2G + 2` while OPT calibrates once at `t = 1` for `G + 3`;
//! * if it waits, one job is released at each step `1 .. T − 1` — the
//!   algorithm pays at least `2T + G` while OPT calibrates at 0 for `T + G`.
//!
//! Because the algorithm is deterministic and online, its behaviour on the
//! probe prefix is identical to its behaviour on the full instance, so the
//! adversary can be realized in two phases: probe, then rerun.

use calib_core::{Cost, Instance, InstanceBuilder, Time};

use crate::engine::run_online;
use crate::scheduler::OnlineScheduler;

/// Outcome of one adversary game.
#[derive(Debug, Clone)]
pub struct AdversaryOutcome {
    /// Which branch the adversary took.
    pub branch: AdversaryBranch,
    /// The instance the adversary ended up constructing.
    pub instance: Instance,
    /// The algorithm's total cost on it.
    pub alg_cost: Cost,
    /// The optimal offline cost (from the paper's closed forms, which the
    /// tests cross-check against the DP).
    pub opt_cost: Cost,
}

impl AdversaryOutcome {
    /// Competitive ratio achieved by the adversary.
    pub fn ratio(&self) -> f64 {
        self.alg_cost as f64 / self.opt_cost as f64
    }
}

/// The branch the adversary selected after probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryBranch {
    /// The algorithm calibrated at time 0 → release a second job at `T`.
    EagerPunished,
    /// The algorithm waited → release a train of jobs at `1 .. T-1`.
    WaiterPunished,
}

/// Plays the Lemma 3.1 game against `make_scheduler` (a fresh scheduler is
/// constructed for the probe and for the real run — deterministic online
/// algorithms make the two runs agree on the shared prefix).
pub fn play_lemma31<S, F>(cal_len: Time, cal_cost: Cost, mut make_scheduler: F) -> AdversaryOutcome
where
    S: OnlineScheduler,
    F: FnMut() -> S,
{
    assert!(cal_len >= 2, "the lemma's construction needs T >= 2");
    // Probe: a single job at time 0. Did the algorithm calibrate at 0?
    let probe = InstanceBuilder::new(cal_len)
        .unit_jobs([0])
        .build()
        .unwrap();
    let probe_res = run_online(&probe, cal_cost, &mut make_scheduler());
    let calibrated_at_zero = probe_res.intervals.first().is_some_and(|iv| iv.start == 0);

    let (branch, instance) = if calibrated_at_zero {
        let inst = InstanceBuilder::new(cal_len)
            .unit_jobs([0, cal_len])
            .build()
            .unwrap();
        (AdversaryBranch::EagerPunished, inst)
    } else {
        let inst = InstanceBuilder::new(cal_len)
            .unit_jobs(0..cal_len)
            .build()
            .unwrap();
        (AdversaryBranch::WaiterPunished, inst)
    };

    let alg = run_online(&instance, cal_cost, &mut make_scheduler());
    let opt_cost = match branch {
        // OPT calibrates at t = 1: job 0 runs at 1 (flow 2), job T runs at
        // T (flow 1): G + 3.
        AdversaryBranch::EagerPunished => cal_cost + 3,
        // OPT calibrates at 0; every job runs at release: G + T.
        AdversaryBranch::WaiterPunished => cal_cost + cal_len as Cost,
    };

    AdversaryOutcome {
        branch,
        instance,
        alg_cost: alg.cost,
        opt_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg1::Alg1;
    use crate::baselines::{CalibrateImmediately, SkiRentalBatch};
    use calib_offline::opt_online_cost;

    #[test]
    fn closed_form_opt_matches_dp() {
        for (t, g) in [(3i64, 5u128), (4, 9), (6, 2), (5, 20)] {
            for mk in 0..2 {
                let outcome = if mk == 0 {
                    play_lemma31(t, g, Alg1::new)
                } else {
                    play_lemma31(t, g, || CalibrateImmediately)
                };
                let dp = opt_online_cost(&outcome.instance, g).unwrap();
                assert!(
                    dp.cost <= outcome.opt_cost,
                    "closed form must upper-bound true OPT: T={t} G={g} {:?}",
                    outcome.branch
                );
            }
        }
    }

    #[test]
    fn eager_algorithms_get_eager_branch() {
        // CalibrateImmediately calibrates at 0 -> branch 1.
        let outcome = play_lemma31(4, 10, || CalibrateImmediately);
        assert_eq!(outcome.branch, AdversaryBranch::EagerPunished);
        // It pays 2 calibrations + flow 2.
        assert_eq!(outcome.alg_cost, 2 * 10 + 2);
        assert_eq!(outcome.opt_cost, 13);
    }

    #[test]
    fn patient_algorithms_get_the_job_train() {
        // Ski-rental with G >= small flow waits at t=0.
        let outcome = play_lemma31(8, 50, || SkiRentalBatch);
        assert_eq!(outcome.branch, AdversaryBranch::WaiterPunished);
        assert!(outcome.ratio() > 1.0);
    }

    #[test]
    fn ratio_approaches_two_for_large_parameters() {
        // With G/T <= 1 Alg1's queue rule calibrates at t = 0, so it takes
        // branch 1 with ratio (2G + 2) / (G + 3) -> 2 for large G.
        let outcome = play_lemma31(2000, 1000, Alg1::new);
        assert_eq!(outcome.branch, AdversaryBranch::EagerPunished);
        assert_eq!(outcome.alg_cost, 2 * 1000 + 2);
        assert!(outcome.ratio() > 1.99, "ratio {}", outcome.ratio());
    }
}
