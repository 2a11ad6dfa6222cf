//! The Observation 2.1 greedy assigner.
//!
//! Given a set of calibration times, Observation 2.1 of the paper shows that
//! the following online rule yields an *optimal* assignment of jobs to
//! calibrated slots: at every time step, on every calibrated idle machine,
//! run the highest-weight waiting job, breaking ties by earliest release
//! time. Machines are calibrated in round-robin order.
//!
//! The assigner here implements that rule with event-driven time skipping,
//! so sparse instances (huge gaps between releases) cost `O((n + C) log n)`
//! rather than `O(horizon)`.

use std::collections::BinaryHeap;

use crate::calibration::{coverage_by_machine, round_robin_calibrations, Calibration, Coverage};
use crate::instance::Instance;
use crate::job::Job;
use crate::obs::Counters;
use crate::schedule::{Assignment, Schedule};
use crate::types::{JobId, MachineId, Time};

/// Which waiting job a free calibrated slot takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityPolicy {
    /// Observation 2.1: heaviest first, ties by earliest release, then id.
    /// Optimal for weighted flow; identical to `EarliestReleaseFirst` on
    /// unweighted instances.
    HighestWeightFirst,
    /// Earliest release first (Algorithms 1 and 3 pseudocode), ties by id.
    EarliestReleaseFirst,
    /// Lightest first — the literal reading of Algorithm 2 line 13, kept for
    /// the E10 ablation (see DESIGN.md §5).
    LightestWeightFirst,
}

impl PriorityPolicy {
    /// Priority key; lexicographically *smaller* keys are scheduled first.
    #[inline]
    pub fn sort_key(&self, j: &Job) -> (i128, Time, u32) {
        match self {
            PriorityPolicy::HighestWeightFirst => (-i128::from(j.weight), j.release, j.id.0),
            PriorityPolicy::EarliestReleaseFirst => (0, j.release, j.id.0),
            PriorityPolicy::LightestWeightFirst => (i128::from(j.weight), j.release, j.id.0),
        }
    }
}

/// Max-heap entry ordered so the *highest-priority* job pops first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    key: (i128, Time, u32),
    job: Job,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse so smaller keys pop first.
        other.key.cmp(&self.key)
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A priority queue of waiting jobs under a fixed [`PriorityPolicy`]: the
/// greedy assigner's queue.
///
/// The online engine does not use it. Its schedulers read `Σw` and the
/// queue flow `f` at every event, so it keeps its own queue with those
/// aggregates maintained (`calib_online::queue::WaitQueue`).
#[derive(Debug, Clone)]
pub struct WaitingQueue {
    policy: PriorityPolicy,
    heap: BinaryHeap<HeapEntry>,
}

impl WaitingQueue {
    /// An empty queue with the given service policy.
    pub fn new(policy: PriorityPolicy) -> Self {
        WaitingQueue {
            policy,
            heap: BinaryHeap::new(),
        }
    }

    /// The queue's service policy.
    pub fn policy(&self) -> PriorityPolicy {
        self.policy
    }

    /// Adds a released job.
    pub fn push(&mut self, job: Job) {
        self.heap.push(HeapEntry {
            key: self.policy.sort_key(&job),
            job,
        });
    }

    /// Removes and returns the highest-priority job.
    pub fn pop(&mut self) -> Option<Job> {
        self.heap.pop().map(|e| e.job)
    }

    /// The highest-priority job without removing it.
    pub fn peek(&self) -> Option<&Job> {
        self.heap.peek().map(|e| &e.job)
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The waiting jobs in *scheduling-priority* order (for `f` evaluation).
    pub fn in_priority_order(&self) -> Vec<Job> {
        let mut entries: Vec<&HeapEntry> = self.heap.iter().collect();
        entries.sort_by_key(|a| a.key);
        entries.into_iter().map(|e| e.job).collect()
    }

    /// The waiting jobs in release order (for Algorithm 1's FIFO `f`).
    pub fn in_release_order(&self) -> Vec<Job> {
        let mut jobs: Vec<Job> = self.heap.iter().map(|e| e.job).collect();
        jobs.sort_by_key(|j| (j.release, j.id));
        jobs
    }
}

/// Failure to schedule every job within the given calibrations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsufficientCalibrations {
    /// Jobs that could not be placed in any remaining calibrated slot.
    pub unscheduled: Vec<JobId>,
}

impl std::fmt::Display for InsufficientCalibrations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} job(s) do not fit in the calibrated slots",
            self.unscheduled.len()
        )
    }
}

impl std::error::Error for InsufficientCalibrations {}

/// Observation 2.1 end to end: round-robin the (time-sorted) calibration
/// times over the machines, then greedily assign with
/// [`PriorityPolicy::HighestWeightFirst`].
pub fn assign_greedy(
    instance: &Instance,
    times: &[Time],
) -> Result<Schedule, InsufficientCalibrations> {
    let cals = round_robin_calibrations(times, instance.machines());
    assign_with_calibrations(instance, &cals, PriorityPolicy::HighestWeightFirst)
}

/// As [`assign_greedy`], with an explicit job-priority policy.
pub fn assign_greedy_with_policy(
    instance: &Instance,
    times: &[Time],
    policy: PriorityPolicy,
) -> Result<Schedule, InsufficientCalibrations> {
    let cals = round_robin_calibrations(times, instance.machines());
    assign_with_calibrations(instance, &cals, policy)
}

/// Greedy assignment with an explicit machine placement of each calibration.
///
/// At each time step (visited in increasing order, skipping dead time), every
/// machine whose coverage includes the step takes the highest-priority
/// waiting job; machines are served in ascending index order within a step.
pub fn assign_with_calibrations(
    instance: &Instance,
    calibrations: &[Calibration],
    policy: PriorityPolicy,
) -> Result<Schedule, InsufficientCalibrations> {
    assign_with_calibrations_counted(instance, calibrations, policy, None)
}

/// [`assign_with_calibrations`] with an optional [`Counters`] registry:
/// every candidate-slot probe (a `next_covered` query against a machine's
/// coverage) bumps `assigner_slots_scanned`. The count accumulates in a
/// local integer and is flushed to the atomics once on exit, so the hot
/// loop never touches shared state.
pub fn assign_with_calibrations_counted(
    instance: &Instance,
    calibrations: &[Calibration],
    policy: PriorityPolicy,
    counters: Option<&Counters>,
) -> Result<Schedule, InsufficientCalibrations> {
    let mut slots_scanned = 0u64;
    let result = assign_inner(instance, calibrations, policy, &mut slots_scanned);
    if let Some(c) = counters {
        c.assigner_slots_scanned(slots_scanned);
    }
    result
}

fn assign_inner(
    instance: &Instance,
    calibrations: &[Calibration],
    policy: PriorityPolicy,
    slots_scanned: &mut u64,
) -> Result<Schedule, InsufficientCalibrations> {
    let p = instance.machines();
    let coverage: Vec<Coverage> = coverage_by_machine(calibrations, p, instance.cal_len());

    let jobs = instance.jobs(); // sorted by (release, id)
    let mut next_job = 0usize;
    let mut waiting = WaitingQueue::new(policy);
    let mut assignments: Vec<Assignment> = Vec::with_capacity(jobs.len());
    // `used_until[m]`: machine m consumed its slots strictly before this time.
    let mut used_until: Vec<Time> = vec![Time::MIN; p];

    let mut t = match jobs.first() {
        Some(j) => j.release,
        None => {
            return Ok(Schedule::new(calibrations.to_vec(), assignments));
        }
    };

    loop {
        // Refill the waiting set when it drains.
        if waiting.is_empty() {
            if next_job >= jobs.len() {
                break; // everything scheduled
            }
            t = t.max(jobs[next_job].release);
        }
        while next_job < jobs.len() && jobs[next_job].release <= t {
            waiting.push(jobs[next_job]);
            next_job += 1;
        }
        if waiting.is_empty() {
            continue; // jumped to a release; loop refills
        }

        // Earliest usable slot >= t over all machines.
        let mut earliest: Option<Time> = None;
        for m in 0..p {
            let from = t.max(used_until[m]);
            *slots_scanned += 1;
            if let Some(s) = coverage[m].next_covered(from) {
                earliest = Some(earliest.map_or(s, |e: Time| e.min(s)));
            }
        }
        let s = match earliest {
            Some(s) => s,
            None => {
                let mut unscheduled: Vec<JobId> = Vec::new();
                while let Some(j) = waiting.pop() {
                    unscheduled.push(j.id);
                }
                unscheduled.extend(jobs[next_job..].iter().map(|j| j.id));
                unscheduled.sort();
                return Err(InsufficientCalibrations { unscheduled });
            }
        };

        if s > t {
            // Jump forward; absorb arrivals released in the meantime first.
            t = s;
            while next_job < jobs.len() && jobs[next_job].release <= t {
                waiting.push(jobs[next_job]);
                next_job += 1;
            }
        }

        // Serve every machine calibrated at t, ascending index.
        for m in 0..p {
            if waiting.is_empty() {
                break;
            }
            let from = t.max(used_until[m]);
            *slots_scanned += 1;
            if coverage[m].next_covered(from) == Some(t) {
                let Some(job) = waiting.pop() else {
                    break; // emptiness is re-checked above; defensive only
                };
                assignments.push(Assignment::new(job.id, t, MachineId::from_index(m)));
                used_until[m] = t + 1;
            }
        }
        t += 1;
    }

    Ok(Schedule::new(calibrations.to_vec(), assignments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_schedule;
    use crate::instance::InstanceBuilder;

    #[test]
    fn schedules_in_release_order_when_unweighted() {
        let inst = InstanceBuilder::new(5)
            .unit_jobs([0, 1, 2])
            .build()
            .unwrap();
        let sched = assign_greedy(&inst, &[0]).unwrap();
        check_schedule(&inst, &sched).unwrap();
        assert_eq!(sched.start_of(JobId(0)), Some(0));
        assert_eq!(sched.start_of(JobId(1)), Some(1));
        assert_eq!(sched.start_of(JobId(2)), Some(2));
    }

    #[test]
    fn heaviest_job_preempts_queue_position() {
        // Jobs 0 (w=1) and 1 (w=9) both waiting when the calibration opens.
        let inst = InstanceBuilder::new(4).job(0, 1).job(1, 9).build().unwrap();
        let sched = assign_greedy(&inst, &[2]).unwrap();
        check_schedule(&inst, &sched).unwrap();
        assert_eq!(sched.start_of(JobId(1)), Some(2));
        assert_eq!(sched.start_of(JobId(0)), Some(3));
    }

    #[test]
    fn lightest_policy_reverses_that() {
        let inst = InstanceBuilder::new(4).job(0, 1).job(1, 9).build().unwrap();
        let sched =
            assign_greedy_with_policy(&inst, &[2], PriorityPolicy::LightestWeightFirst).unwrap();
        assert_eq!(sched.start_of(JobId(0)), Some(2));
        assert_eq!(sched.start_of(JobId(1)), Some(3));
    }

    #[test]
    fn insufficient_calibrations_reports_leftovers() {
        let inst = InstanceBuilder::new(2)
            .unit_jobs([0, 0, 0])
            .build()
            .unwrap();
        let err = assign_greedy(&inst, &[0]).unwrap_err();
        assert_eq!(err.unscheduled.len(), 1);
    }

    #[test]
    fn round_robin_spreads_across_machines() {
        let inst = InstanceBuilder::new(3)
            .machines(2)
            .unit_jobs([0, 0])
            .build()
            .unwrap();
        let sched = assign_greedy(&inst, &[0, 0]).unwrap();
        check_schedule(&inst, &sched).unwrap();
        // Both jobs run at time 0, one per machine.
        let mut starts: Vec<Time> = sched.assignments.iter().map(|a| a.start).collect();
        starts.sort();
        assert_eq!(starts, vec![0, 0]);
    }

    #[test]
    fn skips_dead_time_between_bursts() {
        let inst = InstanceBuilder::new(3)
            .unit_jobs([0, 1_000_000])
            .build()
            .unwrap();
        let sched = assign_greedy(&inst, &[0, 1_000_000]).unwrap();
        check_schedule(&inst, &sched).unwrap();
        assert_eq!(sched.start_of(JobId(1)), Some(1_000_000));
    }

    #[test]
    fn waits_for_calibration_when_released_early() {
        let inst = InstanceBuilder::new(3).unit_jobs([0]).build().unwrap();
        let sched = assign_greedy(&inst, &[7]).unwrap();
        check_schedule(&inst, &sched).unwrap();
        assert_eq!(sched.start_of(JobId(0)), Some(7));
    }

    #[test]
    fn later_arrival_with_higher_weight_jumps_ahead() {
        // Calibration [0, 5). j0 (w=1, r=0) runs at 0; j1 (w=5, r=1) and
        // j2 (w=1, r=1): at t=1 the heavy one goes first.
        let inst = InstanceBuilder::new(5)
            .job(0, 1)
            .job(1, 5)
            .job(1, 1)
            .build()
            .unwrap();
        let sched = assign_greedy(&inst, &[0]).unwrap();
        check_schedule(&inst, &sched).unwrap();
        assert_eq!(sched.start_of(JobId(0)), Some(0));
        assert_eq!(sched.start_of(JobId(1)), Some(1));
        assert_eq!(sched.start_of(JobId(2)), Some(2));
    }

    #[test]
    fn counted_assignment_reports_slot_scans() {
        use crate::obs::Counters;

        let inst = InstanceBuilder::new(5)
            .unit_jobs([0, 1, 2])
            .build()
            .unwrap();
        let cals = crate::calibration::round_robin_calibrations(&[0], inst.machines());
        let counters = Counters::new();
        let counted = assign_with_calibrations_counted(
            &inst,
            &cals,
            PriorityPolicy::HighestWeightFirst,
            Some(&counters),
        )
        .unwrap();
        // Same schedule as the uncounted path, plus a nonzero scan count.
        let plain =
            assign_with_calibrations(&inst, &cals, PriorityPolicy::HighestWeightFirst).unwrap();
        assert_eq!(counted, plain);
        assert!(counters.snapshot().assigner_slots_scanned >= u64::try_from(inst.n()).unwrap());
    }

    #[test]
    fn waiting_queue_orders() {
        let mut q = WaitingQueue::new(PriorityPolicy::HighestWeightFirst);
        q.push(Job::new(0, 0, 1));
        q.push(Job::new(1, 2, 7));
        q.push(Job::new(2, 1, 7));
        let order: Vec<u32> = q.in_priority_order().iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![2, 1, 0]); // weight 7 (release 1), weight 7 (release 2), weight 1
        let rel: Vec<u32> = q.in_release_order().iter().map(|j| j.id.0).collect();
        assert_eq!(rel, vec![0, 2, 1]);
        assert_eq!(q.pop().unwrap().id, JobId(2));
        assert_eq!(q.len(), 2);
    }
}
