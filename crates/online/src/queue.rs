//! The engine-owned waiting queue, with the aggregates behind the queue
//! flow `f` maintained under every insert and remove.
//!
//! Algorithms 1–3 decide from the queue's size, its weight `Σw`, and `f`:
//! the weighted flow if every waiting job ran back-to-back from `t + 1`.
//! Over the queue in some order, with `k` the 0-based position,
//!
//! `f(t) = (t + 2)·Σw + Σₖ k·w₍ₖ₎ − Σ w·r`.
//!
//! Only the middle term depends on the order:
//!
//! * heaviest first, the later job of every pair is the lighter one, so
//!   `Σₖ k·w₍ₖ₎ = Σ over pairs min(wᵢ, wⱼ)`;
//! * lightest first, symmetrically, it is `Σ over pairs max(wᵢ, wⱼ)`;
//! * in release order, an insert or remove at position `p` moves it by
//!   `p·w` plus the weight of the jobs behind `p`.
//!
//! Jobs enter in `(release, id)` order — the engine releases them from a
//! sorted arrival stream — so within one weight class the queue is a FIFO.
//! The queue keeps one `(release, id)`-sorted deque per distinct weight and
//! every operation costs `O(D · log |Q|)` for `D` distinct waiting weights
//! (`D = 1` on unit-weight instances). `calib_core`'s slice-scanning
//! [`flow_if_run_consecutively`](calib_core::flow_if_run_consecutively) and
//! [`earliest_flow_crossing`](calib_core::earliest_flow_crossing) remain the
//! oracle the property tests hold these aggregates to.

use std::collections::{BTreeMap, VecDeque};

use calib_core::{flow_crossing, Cost, Job, JobId, PriorityPolicy, Time, Weight};

/// Waiting (released, unscheduled, unreserved) jobs, served in a
/// [`PriorityPolicy`] order, with `Σw` and both the release-order and the
/// policy-order `f` available in `O(D)`.
#[derive(Debug, Clone)]
pub struct WaitQueue {
    policy: PriorityPolicy,
    /// One FIFO per distinct waiting weight, each sorted by `(release, id)`.
    /// Empty buckets are dropped, so the map holds exactly `D` entries.
    buckets: BTreeMap<Weight, VecDeque<Job>>,
    len: usize,
    /// `Σ w`.
    weight: i128,
    /// `Σ w·r`.
    weighted_release: i128,
    /// `Σₖ k·w₍ₖ₎` in `(release, id)` order.
    release_rank: i128,
    /// `Σ over pairs min(wᵢ, wⱼ)`: the same sum in heaviest-first order.
    pairs_min: i128,
    /// `Σ over pairs max(wᵢ, wⱼ)`: the same sum in lightest-first order.
    pairs_max: i128,
}

/// The queue's release order, and the order inside every bucket.
fn release_key(job: &Job) -> (Time, JobId) {
    (job.release, job.id)
}

/// A job count as an aggregate operand (queues never approach `2^127`).
fn wide(n: usize) -> i128 {
    i128::try_from(n).unwrap_or(i128::MAX)
}

/// How one job relates to the rest of the queue.
struct Neighbours {
    /// Jobs ahead of it in release order.
    before: i128,
    /// Total weight of the jobs behind it in release order.
    behind: i128,
    /// `Σ min(w, wⱼ)` over the other jobs.
    min: i128,
    /// `Σ max(w, wⱼ)` over the other jobs.
    max: i128,
}

impl WaitQueue {
    /// An empty queue serving in `policy` order.
    pub fn new(policy: PriorityPolicy) -> Self {
        WaitQueue {
            policy,
            buckets: BTreeMap::new(),
            len: 0,
            weight: 0,
            weighted_release: 0,
            release_rank: 0,
            pairs_min: 0,
            pairs_max: 0,
        }
    }

    /// The service order of [`WaitQueue::pop`], [`WaitQueue::first_k`] and
    /// the policy-order `f`.
    pub fn policy(&self) -> PriorityPolicy {
        self.policy
    }

    /// Switches the service order. Every order's aggregate is maintained,
    /// so this is `O(1)`.
    pub fn set_policy(&mut self, policy: PriorityPolicy) {
        self.policy = policy;
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total weight `Σw`.
    pub fn weight(&self) -> Cost {
        self.weight.unsigned_abs()
    }

    /// Adds a released job. Jobs must arrive in strictly increasing
    /// `(release, id)` order — the order the engine releases them in.
    pub fn push(&mut self, job: Job) {
        debug_assert!(
            self.buckets
                .values()
                .filter_map(VecDeque::back)
                .all(|last| release_key(last) < release_key(&job)),
            "jobs must enter the queue in (release, id) order"
        );
        // Every queued job is ahead of the new one in release order.
        let n = self.neighbours(&job, None);
        let w = i128::from(job.weight);
        self.release_rank += wide(self.len) * w;
        self.pairs_min += n.min;
        self.pairs_max += n.max;
        self.weight += w;
        self.weighted_release += w * i128::from(job.release);
        self.len += 1;
        self.buckets.entry(job.weight).or_default().push_back(job);
    }

    /// Removes and returns the first job in policy order.
    pub fn pop(&mut self) -> Option<Job> {
        let weight = match self.policy {
            PriorityPolicy::HighestWeightFirst => *self.buckets.keys().next_back()?,
            PriorityPolicy::LightestWeightFirst => *self.buckets.keys().next()?,
            PriorityPolicy::EarliestReleaseFirst => {
                self.buckets
                    .iter()
                    .filter_map(|(&w, q)| q.front().map(|j| (release_key(j), w)))
                    .min()?
                    .1
            }
        };
        self.take(weight, 0)
    }

    /// Removes `job` (matched by weight, release and id) if it is waiting.
    pub fn remove(&mut self, job: &Job) -> Option<Job> {
        let i = self
            .buckets
            .get(&job.weight)?
            .binary_search_by_key(&release_key(job), release_key)
            .ok()?;
        self.take(job.weight, i)
    }

    /// Removes the job `id` if it heads one of the weight classes, in
    /// `O(D)`: where reservations, taken in policy order, find their jobs.
    pub fn remove_front(&mut self, id: JobId) -> Option<Job> {
        let weight = self
            .buckets
            .iter()
            .find(|(_, q)| q.front().is_some_and(|j| j.id == id))
            .map(|(&w, _)| w)?;
        self.take(weight, 0)
    }

    fn take(&mut self, weight: Weight, i: usize) -> Option<Job> {
        let bucket = self.buckets.get_mut(&weight)?;
        let job = bucket.remove(i)?;
        if bucket.is_empty() {
            self.buckets.remove(&weight);
        }
        let n = self.neighbours(&job, Some(i));
        let w = i128::from(job.weight);
        self.release_rank -= n.before * w + n.behind;
        self.pairs_min -= n.min;
        self.pairs_max -= n.max;
        self.weight -= w;
        self.weighted_release -= w * i128::from(job.release);
        self.len -= 1;
        Some(job)
    }

    /// `job`'s place among the queued jobs (which must not include it).
    /// `own` is the index the job held in its bucket, if it was queued:
    /// the bucket's jobs ahead of it, found without a search. Release-order
    /// counts are skipped when it was not (a push is always last).
    fn neighbours(&self, job: &Job, own: Option<usize>) -> Neighbours {
        let (key, w) = (release_key(job), i128::from(job.weight));
        let mut n = Neighbours {
            before: 0,
            behind: 0,
            min: 0,
            max: 0,
        };
        for (&weight, q) in &self.buckets {
            let b = i128::from(weight);
            if let Some(own) = own {
                let ahead = if weight == job.weight {
                    own
                } else {
                    q.partition_point(|j| release_key(j) < key)
                };
                n.before += wide(ahead);
                n.behind += b * wide(q.len() - ahead);
            }
            n.min += wide(q.len()) * b.min(w);
            n.max += wide(q.len()) * b.max(w);
        }
        n
    }

    /// `Σₖ k·w₍ₖ₎` with the queue in `policy` order.
    fn rank(&self, policy: PriorityPolicy) -> i128 {
        match policy {
            PriorityPolicy::HighestWeightFirst => self.pairs_min,
            PriorityPolicy::LightestWeightFirst => self.pairs_max,
            PriorityPolicy::EarliestReleaseFirst => self.release_rank,
        }
    }

    /// Weighted flow if the queue ran back-to-back from `first_start` in
    /// `(release, id)` order: `flow_if_run_consecutively` on the sorted
    /// queue.
    pub fn release_flow(&self, first_start: Time) -> Cost {
        self.flow(self.release_rank, first_start)
    }

    /// As [`WaitQueue::release_flow`], in policy order.
    pub fn policy_flow(&self, first_start: Time) -> Cost {
        self.flow(self.rank(self.policy), first_start)
    }

    fn flow(&self, rank: i128, first_start: Time) -> Cost {
        let total = (i128::from(first_start) + 1) * self.weight + rank - self.weighted_release;
        debug_assert!(
            total >= 0,
            "queue flow must be nonnegative for released jobs"
        );
        Cost::try_from(total).unwrap_or(0)
    }

    /// Smallest `t` at which the release-order flow from `t + 1` reaches
    /// `threshold`: `earliest_flow_crossing` on the sorted queue. `None`
    /// when the queue is empty.
    pub fn release_crossing(&self, threshold: Cost) -> Option<Time> {
        self.crossing(self.release_rank, threshold)
    }

    /// As [`WaitQueue::release_crossing`], in policy order.
    pub fn policy_crossing(&self, threshold: Cost) -> Option<Time> {
        self.crossing(self.rank(self.policy), threshold)
    }

    fn crossing(&self, rank: i128, threshold: Cost) -> Option<Time> {
        let floor = self
            .buckets
            .values()
            .filter_map(|q| q.back().map(|j| j.release))
            .max()?;
        Some(flow_crossing(
            self.weight,
            rank - self.weighted_release,
            floor,
            threshold,
        ))
    }

    /// The first `k` jobs in policy order (fewer if the queue is shorter).
    pub fn first_k(&self, k: usize) -> Vec<Job> {
        self.ordered(self.policy, k)
    }

    /// Every waiting job in `(release, id)` order.
    pub fn release_order(&self) -> Vec<Job> {
        self.ordered(PriorityPolicy::EarliestReleaseFirst, self.len)
    }

    fn ordered(&self, policy: PriorityPolicy, k: usize) -> Vec<Job> {
        let k = k.min(self.len);
        match policy {
            PriorityPolicy::HighestWeightFirst => self
                .buckets
                .values()
                .rev()
                .flatten()
                .take(k)
                .copied()
                .collect(),
            PriorityPolicy::LightestWeightFirst => {
                self.buckets.values().flatten().take(k).copied().collect()
            }
            PriorityPolicy::EarliestReleaseFirst => {
                // A D-way merge of the sorted buckets.
                let mut cursors: Vec<(&VecDeque<Job>, usize)> =
                    self.buckets.values().map(|q| (q, 0)).collect();
                let mut out = Vec::with_capacity(k);
                while out.len() < k {
                    let Some((q, i)) = cursors
                        .iter_mut()
                        .filter(|(q, i)| *i < q.len())
                        .min_by_key(|(q, i)| release_key(&q[*i]))
                    else {
                        break;
                    };
                    out.push(q[*i]);
                    *i += 1;
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calib_core::{earliest_flow_crossing, flow_if_run_consecutively};

    #[test]
    fn weight_orders_use_the_pair_identities() {
        // Weights 5, 2, 5, 1 released 0..4: heaviest first is 5,5,2,1.
        let mut q = WaitQueue::new(PriorityPolicy::HighestWeightFirst);
        for (id, w) in [(0u32, 5u64), (1, 2), (2, 5), (3, 1)] {
            q.push(Job::new(id, i64::from(id), w));
        }
        let heavy = [
            Job::new(0, 0, 5),
            Job::new(2, 2, 5),
            Job::new(1, 1, 2),
            Job::new(3, 3, 1),
        ];
        assert_eq!(q.first_k(9), heavy);
        assert_eq!(q.policy_flow(4), flow_if_run_consecutively(&heavy, 4));
        assert_eq!(q.policy_crossing(200), earliest_flow_crossing(&heavy, 200));
        q.set_policy(PriorityPolicy::LightestWeightFirst);
        let light = [
            Job::new(3, 3, 1),
            Job::new(1, 1, 2),
            Job::new(0, 0, 5),
            Job::new(2, 2, 5),
        ];
        assert_eq!(q.first_k(9), light);
        assert_eq!(q.policy_flow(4), flow_if_run_consecutively(&light, 4));
        let release = q.release_order();
        assert_eq!(q.release_flow(4), flow_if_run_consecutively(&release, 4));
        assert_eq!(q.pop(), Some(Job::new(3, 3, 1)));
        assert_eq!(q.remove(&Job::new(2, 2, 5)), Some(Job::new(2, 2, 5)));
        assert_eq!(q.remove(&Job::new(2, 2, 5)), None, "already removed");
        assert_eq!((q.len(), q.weight()), (2, 7));
        q.set_policy(PriorityPolicy::EarliestReleaseFirst);
        assert_eq!(q.pop(), Some(Job::new(0, 0, 5)));
        assert_eq!(q.pop(), Some(Job::new(1, 1, 2)));
        assert_eq!((q.pop(), q.release_crossing(1)), (None, None));
    }
}
