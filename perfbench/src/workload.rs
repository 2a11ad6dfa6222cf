//! The workloads and the seeded session pool a run drives.
//!
//! Everything here runs before any daemon starts: instances, request
//! plans and each session's batch `run_online` ground truth are built from
//! the workload seed, so no metric includes them.

use std::time::Instant;

use calib_core::json::{Json, ToJson};
use calib_core::{Cost, Instance, Job, Time};
use calib_difftest::{gen_case_sized, GenParams};
use calib_online::run_online;
use calib_serve::{Algorithm, PlanStep, MAX_LINE_BYTES};
use calib_workloads::{arrivals, make_instance, WeightModel};

/// Worker threads of the daemon of a [`Topology::Direct`] workload.
pub const DIRECT_WORKERS: usize = 2;
/// Daemons behind the router of a [`Topology::Fleet`] workload.
pub const SHARDS: usize = 2;
/// Worker threads per fleet daemon.
pub const SHARD_WORKERS: usize = 1;
/// Fleet daemons' `--checkpoint-every-n`.
pub const CHECKPOINT_EVERY: u64 = 64;
/// Fleet daemons' `--max-inflight`: the offered in-flight load, 2
/// connections x a window of 32.
pub const MAX_INFLIGHT: u64 = 64;

/// How the processes under test are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `calib-serve --workers DIRECT_WORKERS`; journal and admission
    /// off.
    Direct,
    /// `calib-router` over `SHARDS` daemons that share one journal
    /// directory, fsync at every tick, checkpoint every `CHECKPOINT_EVERY`
    /// records and cap work in flight per daemon at `MAX_INFLIGHT`.
    Fleet,
}

/// Where a workload's instances come from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// calib-loadgen's generator (`gen_case_sized` under the bounds of its
    /// `tenant_plan`). The five arrival families take turns across the
    /// pool, so every seed gets the same family mix.
    Generator,
    /// Poisson arrivals at `rate` expected jobs per step per machine,
    /// with fixed `T` and `G` inside `tenant_plan`'s bounds (alg3 gets two
    /// machines, alg2 uniform weights up to 9). The seed only moves arrival
    /// times and weights, so every session of every seed carries the same
    /// load.
    Poisson {
        /// Poisson rate per machine.
        rate: f64,
        /// Calibration length `T`.
        cal_len: Time,
        /// Calibration cost `G`.
        cal_cost: Cost,
    },
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// The name passed as `--workload`.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
    /// The layers it loads, and the ones it bypasses.
    pub layers: &'static str,
    /// Jobs per session.
    pub jobs: usize,
    /// Distinct instances in the pool; each connection cycles through all.
    pub pool: usize,
    /// Connection `c` starts its cycle `c * stagger` slots into the pool.
    pub stagger: usize,
    /// Sessions (connection 0's first) the traced run replays in-process.
    pub replay: usize,
    /// Instance source.
    pub source: Source,
    /// Process layout.
    pub topology: Topology,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "interactive",
        why: "Short sessions keep engine queues short, so the cost of each \
              request itself dominates: the path a latency-sensitive tenant takes.",
        layers: "Loads protocol parse and serialize, socket I/O and the reader to \
                 inbox to worker handoff; bypasses the journal, checkpoints, \
                 admission and the router.",
        jobs: 1_000,
        // Six instances of each (algorithm, family) pairing: the instance
        // mix, not the host, set most of the seed-to-seed spread at 30.
        pool: 90,
        // Half a pool apart: the short sessions' handshakes and drains,
        // which leave a pipeline empty, do not line up.
        stagger: 45,
        replay: 15,
        source: Source::Generator,
        topology: Topology::Direct,
    },
    Workload {
        name: "overload",
        why: "Jobs arrive faster than the machines serve them, so thousands wait \
              per tenant: the regime the paper's online algorithms are for.",
        layers: "Loads per-event engine cost, the schedulers' waiting-queue scans \
                 and the quadratic drain-time checker; bypasses the journal, \
                 admission and the router.",
        jobs: 20_000,
        pool: 6,
        stagger: 0,
        replay: 3,
        source: Source::Poisson {
            rate: 0.8,
            cal_len: 4,
            cal_cost: 30,
        },
        topology: Topology::Direct,
    },
    Workload {
        name: "fleet",
        why: "The deployed shape: a router over two journaled shards that \
              fsync every tick, checkpoint every 64 records and hold an \
              in-flight budget equal to the offered load (2 connections x 32).",
        layers: "Loads the router relay, journal appends with fsync, \
                 whole-history checkpoints, admission and the client's \
                 reconnect path on top of the interactive path; its shed \
                 count depends on thread preemption.",
        // A checkpoint serializes the whole history: with 5,000-job
        // sessions a run wrote about 2 GB through fsync, and its CPU cost
        // followed the disk rather than the daemon.
        jobs: 1_000,
        pool: 6,
        stagger: 0,
        replay: 15,
        source: Source::Poisson {
            rate: 0.5,
            cal_len: 4,
            cal_cost: 30,
        },
        topology: Topology::Fleet,
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a plan step asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hello,
    Arrive,
    Tick,
    Drain,
    Bye,
}

/// One engine-level operation, kept beside the plan for the engine-only
/// replay.
#[derive(Debug, Clone)]
pub enum Op {
    Arrive(Vec<Job>),
    Tick(Time),
    Drain,
}

/// One tenant session: its request plan and its batch ground truth.
#[derive(Debug)]
pub struct Session {
    pub tenant: String,
    pub algorithm: Algorithm,
    pub machines: usize,
    pub cal_len: Time,
    pub cal_cost: Cost,
    pub plan: Vec<PlanStep>,
    pub kinds: Vec<Kind>,
    pub ops: Vec<Op>,
    pub drain_seq: u64,
    pub expected_flow: Cost,
    pub expected_cost: Cost,
    /// Calibrations plus starts the session must deliver.
    pub expected_decisions: u64,
}

/// The algorithm a pool slot exercises, with `tenant_plan`'s generator
/// bounds: alg1 and alg2 are single-machine, alg1 and alg3 unweighted.
fn tenant_plan(slot: usize) -> (Algorithm, GenParams) {
    let base = GenParams {
        max_n: 1,
        max_t: 8,
        max_g: 60,
        max_p: 1,
        max_weight: 1,
    };
    match slot % 3 {
        0 => (Algorithm::Alg1, base),
        1 => (
            Algorithm::Alg2,
            GenParams {
                max_weight: 9,
                ..base
            },
        ),
        _ => (Algorithm::Alg3, GenParams { max_p: 3, ..base }),
    }
}

const FAMILIES: [&str; 5] = ["poisson", "bursty", "uniform", "train", "staircase"];

/// SplitMix64 over three words: independent streams per slot and attempt.
fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(c.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The instance for pool slot `slot`: `(algorithm, instance, G)`.
fn instance_for(w: &Workload, seed: u64, slot: usize) -> (Algorithm, Instance, Cost) {
    let (algorithm, params) = tenant_plan(slot);
    let slot64 = slot as u64;
    match w.source {
        Source::Generator => {
            // Algorithms rotate every slot and families every three, so
            // fifteen consecutive slots hold each pairing once. The family
            // is drawn before the job count matters, so a one-job probe
            // finds a matching seed cheaply.
            let family = FAMILIES[(slot / 3) % FAMILIES.len()];
            let case_seed = (0u64..)
                .map(|attempt| mix(seed, slot64, attempt))
                .find(|&s| gen_case_sized(s, &params, 1).name.ends_with(family))
                .expect("every family is drawn with positive probability");
            let case = gen_case_sized(case_seed, &params, w.jobs);
            (algorithm, case.instance, case.cal_cost)
        }
        Source::Poisson {
            rate,
            cal_len,
            cal_cost,
        } => {
            let (machines, weights) = match algorithm {
                Algorithm::Alg2 => (1, WeightModel::Uniform { max: 9 }),
                Algorithm::Alg3 => (2, WeightModel::Unit),
                _ => (1, WeightModel::Unit),
            };
            let releases =
                arrivals::poisson(mix(seed, slot64, 1), w.jobs, rate * machines as f64, false);
            let instance =
                make_instance(releases, weights, mix(seed, slot64, 2), machines, cal_len);
            (algorithm, instance, cal_cost)
        }
    }
}

/// Jobs per `arrive` line, so that no line nears the daemon's line limit.
const MAX_ARRIVE_JOBS: usize = 8_192;

/// Compiles one session: hello, one `arrive` + `tick` per release group,
/// drain, bye. Sequence numbers start at 0.
fn build_session(
    tenant: String,
    algorithm: Algorithm,
    instance: &Instance,
    cal_cost: Cost,
) -> Session {
    let mut plan: Vec<PlanStep> = Vec::new();
    let mut kinds: Vec<Kind> = Vec::new();
    let mut ops: Vec<Op> = Vec::new();
    let mut push = |kind: Kind, fields: Vec<(&'static str, Json)>| {
        let seq = plan.len() as u64;
        plan.push(PlanStep::new(
            seq,
            fields,
            kind == Kind::Drain,
            kind == Kind::Bye,
        ));
        kinds.push(kind);
        seq
    };
    let name = tenant.as_str();
    push(
        Kind::Hello,
        vec![
            ("type", "hello".to_json()),
            ("tenant", name.to_json()),
            ("machines", instance.machines().to_json()),
            ("cal_len", instance.cal_len().to_json()),
            ("cal_cost", cal_cost.to_json()),
            ("algorithm", algorithm.name().to_json()),
            ("weight", 1u64.to_json()),
        ],
    );
    let mut jobs: Vec<Job> = instance.jobs().to_vec();
    jobs.sort_by_key(|j| (j.release, j.id));
    for group in jobs.chunk_by(|a, b| a.release == b.release) {
        for batch in group.chunks(MAX_ARRIVE_JOBS) {
            push(
                Kind::Arrive,
                vec![
                    ("type", "arrive".to_json()),
                    ("tenant", name.to_json()),
                    ("jobs", batch.to_vec().to_json()),
                ],
            );
            ops.push(Op::Arrive(batch.to_vec()));
        }
        let now = group[0].release;
        push(
            Kind::Tick,
            vec![
                ("type", "tick".to_json()),
                ("tenant", name.to_json()),
                ("now", now.to_json()),
            ],
        );
        ops.push(Op::Tick(now));
    }
    let drain_seq = push(
        Kind::Drain,
        vec![("type", "drain".to_json()), ("tenant", name.to_json())],
    );
    ops.push(Op::Drain);
    push(
        Kind::Bye,
        vec![("type", "bye".to_json()), ("tenant", name.to_json())],
    );
    assert!(
        plan.iter().all(|s| s.line.len() < MAX_LINE_BYTES),
        "a request line exceeds the daemon's line limit"
    );
    Session {
        tenant,
        algorithm,
        machines: instance.machines(),
        cal_len: instance.cal_len(),
        cal_cost,
        plan,
        kinds,
        ops,
        drain_seq,
        expected_flow: 0,
        expected_cost: 0,
        expected_decisions: 0,
    }
}

/// Builds the workload's session pool from `seed`, ground truth included:
/// `pool[c][slot]` is connection `c`'s session for `slot`. Every connection
/// runs the same instances in the same order under its own tenant names,
/// so the connections stay in step and the overlap of their sessions does
/// not change from run to run. Two threads share the batch runs.
pub fn build_pool(w: &Workload, seed: u64, connections: usize) -> Vec<Vec<Session>> {
    let slots: Vec<usize> = (0..w.pool).collect();
    let by_slot: Vec<Vec<Session>> = std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .chunks(w.pool.div_ceil(2))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&slot| {
                            let (algorithm, instance, cal_cost) = instance_for(w, seed, slot);
                            let truth =
                                run_online(&instance, cal_cost, algorithm.scheduler().as_mut());
                            (0..connections)
                                .map(|c| {
                                    let tenant = format!("{}-{c}-{slot}", w.name);
                                    let mut s =
                                        build_session(tenant, algorithm, &instance, cal_cost);
                                    s.expected_flow = truth.flow;
                                    s.expected_cost = truth.cost;
                                    s.expected_decisions = (truth.calibrations
                                        + truth.schedule.assignments.len())
                                        as u64;
                                    s
                                })
                                .collect::<Vec<Session>>()
                        })
                        .collect::<Vec<Vec<Session>>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool builder thread panicked"))
            .collect()
    });
    let mut pool: Vec<Vec<Session>> = (0..connections).map(|_| Vec::new()).collect();
    for sessions in by_slot {
        for (c, s) in sessions.into_iter().enumerate() {
            pool[c].push(s);
        }
    }
    pool
}

/// The host-speed reference: fixed single-thread work (generating a
/// 5,000-job alg1 instance plus its batch run), median of seven, in ms.
/// A diagnostic that tells host drift from a regression.
pub fn host_reference_ms() -> f64 {
    let (algorithm, params) = tenant_plan(0);
    let mut times: Vec<f64> = (0..7)
        .map(|_| {
            let started = Instant::now();
            let case = gen_case_sized(7, &params, 5_000);
            let result = run_online(
                &case.instance,
                case.cal_cost,
                algorithm.scheduler().as_mut(),
            );
            std::hint::black_box(result.cost);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&mut times)
}
