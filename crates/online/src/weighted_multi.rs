//! An *extension beyond the paper*: weighted jobs on multiple machines.
//!
//! The paper proves constant competitiveness for weighted/1-machine
//! (Algorithm 2) and unweighted/P-machines (Algorithm 3) and leaves the
//! weighted multi-machine case open. This scheduler combines the two
//! designs — Algorithm 3's round-robin calibrate-and-reserve loop with
//! Algorithm 2's weight-based thresholds and heaviest-first service —
//! as an empirical heuristic. No competitive guarantee is claimed; the E12
//! experiment measures it against the (weighted) Figure 1 LP lower bound.

use calib_core::{ge_ratio, Cost, PriorityPolicy, Time};

use crate::engine::EngineView;
use crate::scheduler::{Decision, OnlineScheduler, Reservation};

/// Trigger labels.
pub mod reason {
    /// The `Σ w(Q) ≥ G/T` weight rule fired.
    pub const WEIGHT: &str = "wmulti:weight>=G/T";
    /// The hypothetical queue flow reached `G`.
    pub const FLOW: &str = "wmulti:flow>=G";
    /// A full interval's worth of jobs is waiting.
    pub const FULL_QUEUE: &str = "wmulti:|Q|=T";
}

/// Weighted multi-machine heuristic (extension; see module docs).
#[derive(Debug, Clone, Default)]
pub struct WeightedMulti;

impl WeightedMulti {
    /// A fresh instance of the heuristic.
    pub fn new() -> Self {
        WeightedMulti
    }

    /// Jobs reserved per fresh interval, as in Algorithm 3.
    fn reserve_quota(g: Cost, t: Time) -> usize {
        ((g / t as Cost) as usize).max(1)
    }
}

impl OnlineScheduler for WeightedMulti {
    fn name(&self) -> String {
        "WeightedMulti".into()
    }

    fn auto_policy(&self) -> PriorityPolicy {
        PriorityPolicy::HighestWeightFirst
    }

    fn decide_late(&mut self, view: &EngineView) -> Decision {
        if view.waiting.is_empty() {
            return Decision::none();
        }
        let g = view.cal_cost;
        let t_len = view.cal_len as u128;

        let weight_rule = ge_ratio(view.queue_weight(), g, t_len);
        let full_queue = view.waiting.len() as Time >= view.cal_len;
        let flow_rule = view.policy_flow_from_next_step() >= g;
        if !weight_rule && !full_queue && !flow_rule {
            return Decision::none();
        }

        let m = view.next_rr_machine;
        let quota = Self::reserve_quota(g, view.cal_len);
        let slots = view.machines[m.index()].plannable_slots_in(
            view.t,
            view.t + view.cal_len,
            quota.min(view.waiting.len()),
        );
        // Reserve the *heaviest* waiting jobs (Observation 2.1 order, the
        // queue's policy order) into the earliest slots of the new interval.
        let reserve: Vec<Reservation> = view
            .first_waiting(slots.len())
            .into_iter()
            .zip(slots)
            .map(|(job, slot)| Reservation {
                job: job.id,
                machine: m,
                slot,
            })
            .collect();
        if reserve.is_empty() {
            return Decision::none();
        }
        Decision {
            calibrate: 1,
            reserve,
            reason: Some(if weight_rule {
                reason::WEIGHT
            } else if full_queue {
                reason::FULL_QUEUE
            } else {
                reason::FLOW
            }),
        }
    }

    fn next_wake(&self, view: &EngineView) -> Option<Time> {
        view.policy_flow_crossing(view.cal_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_online;
    use crate::Alg2;
    use calib_core::{check_schedule, InstanceBuilder};

    #[test]
    fn schedules_everything_multi_machine() {
        let inst = InstanceBuilder::new(3)
            .machines(2)
            .job(0, 5)
            .job(0, 1)
            .job(1, 3)
            .job(6, 9)
            .job(7, 1)
            .build()
            .unwrap();
        for g in [1u128, 5, 20] {
            let res = run_online(&inst, g, &mut WeightedMulti::new());
            check_schedule(&inst, &res.schedule).unwrap();
            assert_eq!(res.schedule.assignments.len(), 5);
        }
    }

    #[test]
    fn heavy_job_triggers_early_calibration() {
        // G = 20, T = 4 -> weight threshold 5; a weight-9 job calibrates at
        // its release instead of waiting for flow.
        let inst = InstanceBuilder::new(4)
            .machines(2)
            .job(3, 9)
            .build()
            .unwrap();
        let res = run_online(&inst, 20, &mut WeightedMulti::new());
        assert_eq!(res.intervals[0].start, 3);
        assert_eq!(res.intervals[0].reason, reason::WEIGHT);
        assert_eq!(res.flow, 9);
    }

    #[test]
    fn reserves_heaviest_first() {
        // Burst of mixed weights; quota 2 per interval. The heavy pair must
        // land in the first interval's first slots.
        let inst = InstanceBuilder::new(4)
            .machines(1)
            .job(0, 1)
            .job(0, 9)
            .job(0, 8)
            .job(0, 1)
            .build()
            .unwrap();
        let res = run_online(&inst, 8, &mut WeightedMulti::new()); // quota = 2
        check_schedule(&inst, &res.schedule).unwrap();
        let heavy_starts: Vec<_> = res
            .schedule
            .assignments
            .iter()
            .filter(|a| inst.job(a.job).unwrap().weight > 1)
            .map(|a| a.start)
            .collect();
        let light_starts: Vec<_> = res
            .schedule
            .assignments
            .iter()
            .filter(|a| inst.job(a.job).unwrap().weight == 1)
            .map(|a| a.start)
            .collect();
        assert!(heavy_starts.iter().max() < light_starts.iter().min());
    }

    #[test]
    fn degenerates_reasonably_on_single_machine() {
        // Not necessarily identical to Alg2 (reservation vs threshold
        // timing differ), but in the same cost ballpark.
        let inst = InstanceBuilder::new(3)
            .job(0, 2)
            .job(2, 7)
            .job(9, 1)
            .build()
            .unwrap();
        for g in [3u128, 12] {
            let wm = run_online(&inst, g, &mut WeightedMulti::new());
            let a2 = run_online(&inst, g, &mut Alg2::new());
            assert!(wm.cost <= 3 * a2.cost, "G={g}: {} vs {}", wm.cost, a2.cost);
            assert!(a2.cost <= 3 * wm.cost, "G={g}");
        }
    }
}

/// The Observation 2.1 "practical" variant of [`WeightedMulti`], mirroring
/// [`crate::alg3::run_alg3_practical`]: keep the heuristic's calibration
/// times, re-assign jobs optimally.
pub fn run_weighted_multi_practical(
    instance: &calib_core::Instance,
    cal_cost: Cost,
) -> crate::engine::RunResult {
    use calib_core::assign_greedy_with_policy;
    let spec = crate::engine::run_online(instance, cal_cost, &mut WeightedMulti::new());
    let times = spec.schedule.calibration_times();
    let schedule = assign_greedy_with_policy(instance, &times, PriorityPolicy::HighestWeightFirst)
        .expect("spec-mode calibrations scheduled every job");
    let flow = schedule.total_weighted_flow(instance);
    let calibrations = schedule.calibration_count();
    crate::engine::RunResult {
        cost: cal_cost * calibrations as Cost + flow,
        flow,
        calibrations,
        schedule,
        intervals: spec.intervals,
    }
}

#[cfg(test)]
mod practical_tests {
    use super::*;
    use crate::engine::run_online;
    use calib_core::{check_schedule, InstanceBuilder};

    #[test]
    fn practical_never_more_flow() {
        let inst = InstanceBuilder::new(3)
            .machines(2)
            .job(0, 4)
            .job(0, 1)
            .job(2, 6)
            .job(5, 2)
            .job(9, 1)
            .build()
            .unwrap();
        for g in [2u128, 7, 21] {
            let spec = run_online(&inst, g, &mut WeightedMulti::new());
            let practical = run_weighted_multi_practical(&inst, g);
            check_schedule(&inst, &practical.schedule).unwrap();
            assert_eq!(practical.calibrations, spec.calibrations, "G={g}");
            assert!(practical.flow <= spec.flow, "G={g}");
        }
    }
}
