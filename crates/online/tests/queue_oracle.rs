//! The engine's [`WaitQueue`] against the slice-scanning oracle.
//!
//! Random push/pop/remove sequences run under every [`PriorityPolicy`],
//! with equal weights, equal releases and weights near `u64::MAX`. After
//! every operation the queue's size, weight, both flows `f` and both
//! crossings must equal — as exact integers — what
//! `flow_if_run_consecutively` and `earliest_flow_crossing` compute on the
//! same jobs sorted into release and policy order. A second property cuts
//! engine sessions mid-run, round-trips them through `snapshot`/`restore`,
//! and requires identical snapshots and identical final schedules.

use proptest::prelude::*;

use calib_core::{
    earliest_flow_crossing, flow_if_run_consecutively, Cost, Instance, Job, NoopProbe,
    PriorityPolicy, Time,
};
use calib_online::{
    Alg1, Alg2, Alg3, EngineConfig, EngineSession, OnlineScheduler, RunResult, SkiRentalBatch,
    WaitQueue, WeightedMulti,
};

const POLICIES: [PriorityPolicy; 3] = [
    PriorityPolicy::HighestWeightFirst,
    PriorityPolicy::EarliestReleaseFirst,
    PriorityPolicy::LightestWeightFirst,
];

/// A weight from a small palette (so classes collide) or near `u64::MAX`.
fn weight_of(pick: u64) -> u64 {
    match pick % 6 {
        0 | 1 => 1,
        2 => 2,
        3 => 7,
        4 => u64::MAX - pick % 3,
        _ => u64::MAX / 2,
    }
}

/// Compares every read of `queue` with the oracle over `model`.
fn check_against_oracle(queue: &WaitQueue, model: &[Job]) -> Result<(), TestCaseError> {
    let mut by_release = model.to_vec();
    by_release.sort_by_key(|j| (j.release, j.id));
    let policy = queue.policy();
    let mut by_policy = model.to_vec();
    by_policy.sort_by_key(|j| policy.sort_key(j));

    prop_assert_eq!(queue.len(), model.len());
    prop_assert_eq!(queue.is_empty(), model.is_empty());
    let weight: Cost = model.iter().map(|j| Cost::from(j.weight)).sum();
    prop_assert_eq!(queue.weight(), weight);
    prop_assert_eq!(queue.release_order(), by_release.clone());
    prop_assert_eq!(queue.first_k(usize::MAX), by_policy.clone());
    let k = model.len() / 2;
    prop_assert_eq!(queue.first_k(k), by_policy[..k].to_vec());

    // f is evaluated from `t + 1` with `t` at or after every queued release.
    let latest = model.iter().map(|j| j.release).max().unwrap_or(0);
    for first_start in [latest, latest + 1, latest + 40] {
        prop_assert_eq!(
            queue.release_flow(first_start),
            flow_if_run_consecutively(&by_release, first_start)
        );
        prop_assert_eq!(
            queue.policy_flow(first_start),
            flow_if_run_consecutively(&by_policy, first_start)
        );
    }
    let total = flow_if_run_consecutively(&by_release, latest + 1);
    for threshold in [0, 1, 97, total, total + 1, total * 3, Cost::MAX] {
        prop_assert_eq!(
            queue.release_crossing(threshold),
            earliest_flow_crossing(&by_release, threshold)
        );
        prop_assert_eq!(
            queue.policy_crossing(threshold),
            earliest_flow_crossing(&by_policy, threshold)
        );
    }
    Ok(())
}

/// Plays `ops` against a fresh queue under `policy`, checking after each.
fn play(policy: PriorityPolicy, ops: &[(u8, u64, u64)]) -> Result<(), TestCaseError> {
    let mut queue = WaitQueue::new(policy);
    let mut model: Vec<Job> = Vec::new();
    let mut gone: Vec<Job> = Vec::new();
    let mut release: Time = 0;
    let mut next_id = 0u32;
    for &(op, a, b) in ops {
        match op {
            // Push: releases never decrease and often repeat.
            0..=4 => {
                release += i64::try_from(a % 3).unwrap_or(0);
                let job = Job::new(next_id, release, weight_of(b));
                next_id += 1;
                queue.push(job);
                model.push(job);
            }
            // Pop: the policy's first job.
            5 | 6 => {
                let expected = model.iter().copied().min_by_key(|j| policy.sort_key(j));
                prop_assert_eq!(queue.pop(), expected);
                if let Some(job) = expected {
                    model.retain(|j| j.id != job.id);
                    gone.push(job);
                }
            }
            // Remove an arbitrary waiting job (a reservation), by id when
            // it heads its weight class.
            7 | 8 if !model.is_empty() => {
                let i = usize::try_from(a).unwrap_or(0) % model.len();
                let job = model.remove(i);
                let heads_class = model
                    .iter()
                    .filter(|j| j.weight == job.weight)
                    .all(|j| (j.release, j.id) > (job.release, job.id));
                if op == 7 && heads_class {
                    prop_assert_eq!(queue.remove_front(job.id), Some(job));
                } else {
                    if !heads_class {
                        prop_assert_eq!(queue.remove_front(job.id), None);
                    }
                    prop_assert_eq!(queue.remove(&job), Some(job));
                }
                gone.push(job);
            }
            // Removing a job that already left is refused.
            _ => {
                if let Some(job) = gone.last() {
                    prop_assert_eq!(queue.remove(job), None);
                    prop_assert_eq!(queue.remove_front(job.id), None);
                }
            }
        }
        check_against_oracle(&queue, &model)?;
    }
    Ok(())
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..10, 0u64..1_000, 0u64..1_000), 0..60)
}

/// One scheduler per queue policy and flow order in use: release-order `f`
/// (Alg1, Alg3), heaviest-first (Alg2, WeightedMulti), lightest-first, and
/// release-order `f` under a heaviest-first pop (SkiRentalBatch).
fn fresh(pick: u8) -> Box<dyn OnlineScheduler> {
    match pick {
        0 => Box::new(Alg1::new()),
        1 => Box::new(Alg2::new()),
        2 => Box::new(Alg2::lightest_first()),
        3 => Box::new(SkiRentalBatch),
        4 => Box::new(WeightedMulti::new()),
        _ => Box::new(Alg3::new()),
    }
}

fn arb_case() -> impl Strategy<Value = (Instance, u8, Cost, Time)> {
    (
        prop::collection::vec((0i64..40, 1u64..=6), 1..=24),
        0u8..6,
        1u128..50,
        0i64..50,
    )
        .prop_map(|(specs, pick, g, cut)| {
            let jobs: Vec<Job> = specs
                .into_iter()
                .zip(0u32..)
                .map(|((r, w), id)| Job::new(id, r, w))
                .collect();
            // Multi-machine schedulers get two machines; Alg3 unit weights.
            let machines = if pick >= 4 { 2 } else { 1 };
            let jobs = if pick == 5 {
                jobs.into_iter()
                    .map(|j| Job::new(j.id.0, j.release, 1))
                    .collect()
            } else {
                jobs
            };
            (Instance::new(jobs, machines, 4).unwrap(), pick, g, cut)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn wait_queue_matches_slice_oracle(ops in arb_ops()) {
        for policy in POLICIES {
            play(policy, &ops)?;
        }
    }

    #[test]
    fn snapshot_restore_mid_run_is_identical(case in arb_case()) {
        let (inst, pick, g, cut) = case;
        let mut session =
            EngineSession::new(inst.machines(), inst.cal_len(), g, EngineConfig::default())
                .unwrap();
        session.submit(inst.jobs()).unwrap();
        session.step(cut, &[], fresh(pick).as_mut()).unwrap();
        let snapshot = session.snapshot();
        // Checkpoints list waiting jobs in (release, id) order.
        let known = |id| inst.job(id).map(|j| (j.release, j.id));
        let keys: Vec<_> = snapshot.waiting.iter().map(|&id| known(id)).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "waiting ids out of order");

        let mut restored = EngineSession::restore(&snapshot, NoopProbe).unwrap();
        // Everything a checkpoint serializes is in the snapshot.
        prop_assert_eq!(
            format!("{:?}", restored.snapshot()),
            format!("{:?}", snapshot)
        );
        session.drain(fresh(pick).as_mut()).unwrap();
        restored.drain(fresh(pick).as_mut()).unwrap();
        let (a, _) = session.finish();
        let (b, _) = restored.finish();
        prop_assert_eq!(a.schedule, b.schedule);
        prop_assert_eq!(a.flow, b.flow);
        let trace = |r: &RunResult| -> Vec<(Time, String)> {
            r.intervals
                .iter()
                .map(|iv| (iv.start, iv.reason.to_string()))
                .collect()
        };
        prop_assert_eq!(trace(&a), trace(&b));
    }
}
