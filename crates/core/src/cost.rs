//! Queue-flow helpers — the quantity `f` of Algorithms 1–3.
//!
//! Algorithms 1–3 repeatedly evaluate "the flow cost of scheduling all jobs
//! in `Q` starting at `t + 1`": the weighted flow if the queued jobs were run
//! back-to-back in slots `t+1, t+2, …` in a given order. These helpers
//! compute that quantity exactly and invert it (find the earliest step at
//! which it crosses `G`) so the simulation engine can skip idle stretches
//! without stepping one slot at a time.

use crate::job::Job;
use crate::types::{Cost, Time};

/// Weighted flow if `jobs` (in the given order) run consecutively in slots
/// `first_start, first_start + 1, …`.
///
/// Positions may precede a job's release (the algorithms evaluate `f`
/// hypothetically); flow contributions are what the formula says,
/// `w * (slot + 1 - r)`, and the caller guarantees `slot + 1 - r >= 1` in
/// every real use (queued jobs are already released).
pub fn flow_if_run_consecutively(jobs: &[Job], first_start: Time) -> Cost {
    let mut total: i128 = 0;
    for (k, j) in jobs.iter().enumerate() {
        let slot = first_start + k as Time;
        total += (j.weight as i128) * ((slot + 1 - j.release) as i128);
    }
    debug_assert!(
        total >= 0,
        "queue flow must be nonnegative for released jobs"
    );
    total as Cost
}

/// Smallest time step `t` at which `flow_if_run_consecutively(jobs, t + 1)`
/// reaches `threshold`, or `None` for an empty queue (the flow never grows).
///
/// Used as the engine wake-up hint: with a static queue, `f` is linear in
/// `t` with slope `Σ w_j`, so the crossing solves in closed form:
///
/// `f(t) = (t + 2) Σw + Σ w_k (k − r_k) ≥ threshold`.
pub fn earliest_flow_crossing(jobs: &[Job], threshold: Cost) -> Option<Time> {
    let floor = jobs.iter().map(|j| j.release).max()?;
    let slope: i128 = jobs.iter().map(|j| i128::from(j.weight)).sum();
    let offset: i128 = jobs
        .iter()
        .zip(0i128..)
        .map(|(j, k)| i128::from(j.weight) * (k - i128::from(j.release)))
        .sum();
    Some(flow_crossing(slope, offset, floor, threshold))
}

/// The closed-form solve behind [`earliest_flow_crossing`], for callers that
/// maintain the queue's aggregates instead of scanning it: `slope = Σw`,
/// `offset = Σ w_k (k − r_k)` over the queue in the order evaluated, and
/// `floor` the queue's latest release. The queue must be non-empty
/// (`slope > 0`).
pub fn flow_crossing(slope: i128, offset: i128, floor: Time, threshold: Cost) -> Time {
    debug_assert!(slope > 0, "jobs have positive weight");
    // Solve (t + 2) * slope + offset >= threshold for integer t. Thresholds
    // beyond i128 saturate: no queue flow reaches them before `Time::MAX`.
    let threshold = i128::try_from(threshold).unwrap_or(i128::MAX);
    let need = threshold.saturating_sub(offset).saturating_sub(2 * slope);
    let t = if need <= 0 {
        i128::MIN
    } else {
        need.saturating_add(slope - 1) / slope
    };
    // Never answer earlier than the queue's latest release: a queued job
    // cannot start before it is released, and at any t >= max release the
    // flow expression is the true (nonnegative) queue flow. Callers
    // additionally max() the result with the current time.
    let t = t.clamp(i128::from(floor), i128::from(Time::MAX));
    Time::try_from(t).unwrap_or(Time::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(spec: &[(Time, u64)]) -> Vec<Job> {
        spec.iter()
            .enumerate()
            .map(|(i, &(r, w))| Job::new(i as u32, r, w))
            .collect()
    }

    #[test]
    fn consecutive_flow_matches_manual_sum() {
        // Jobs released at 0 and 1, weights 1 and 3, starting at slot 2:
        // j0 at 2 -> flow 3; j1 at 3 -> flow 3*3 = 9.
        let q = jobs(&[(0, 1), (1, 3)]);
        assert_eq!(flow_if_run_consecutively(&q, 2), 12);
    }

    #[test]
    fn empty_queue_has_zero_flow_and_no_crossing() {
        assert_eq!(flow_if_run_consecutively(&[], 5), 0);
        assert_eq!(earliest_flow_crossing(&[], 10), None);
    }

    #[test]
    fn crossing_matches_brute_force_scan() {
        let q = jobs(&[(0, 2), (3, 1), (3, 4)]);
        for threshold in [1u128, 5, 17, 100, 1000] {
            let t = earliest_flow_crossing(&q, threshold).unwrap();
            // t is the first step where f(t) = flow starting at t+1 >= threshold.
            assert!(
                flow_if_run_consecutively(&q, t + 1) >= threshold,
                "threshold {threshold}: f({t}) too small"
            );
            if t > 3 {
                assert!(
                    flow_if_run_consecutively(&q, t) < threshold,
                    "threshold {threshold}: crossing not minimal at {t}"
                );
            }
        }
    }

    #[test]
    fn crossing_already_passed_is_clamped_low() {
        let q = jobs(&[(0, 100)]);
        // f(t) = 100 (t + 2): threshold 1 crossed long "ago"; the returned
        // time is simply small, and the engine maxes it with `now`.
        let t = earliest_flow_crossing(&q, 1).unwrap();
        assert!(flow_if_run_consecutively(&q, t + 1) >= 1);
    }

    #[test]
    fn order_matters_for_weighted_queues() {
        let heavy_first = jobs(&[(0, 9), (0, 1)]);
        let light_first = jobs(&[(0, 1), (0, 9)]);
        // Heavy job earlier -> lower total weighted flow.
        assert!(
            flow_if_run_consecutively(&heavy_first, 1) < flow_if_run_consecutively(&light_first, 1)
        );
    }
}
