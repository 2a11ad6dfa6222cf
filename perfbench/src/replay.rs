//! The traced run's per-layer split: an in-process replay of the same
//! request lines through each module's public functions, with a span
//! recorded around every call (name, start, end, parent span, session).
//! Spans stay in memory and are written out when the run ends.
//!
//! Two replays cover the layers:
//! - the serve replay walks every request line through `Json::parse` +
//!   `Request::from_json`, the `TenantSession` call the daemon's worker
//!   makes, and `Reply::to_line`; for a fleet workload the session also
//!   journals and checkpoints through its own hooks, as a fleet daemon's
//!   does, and every request passes the same `Admission` controller;
//! - the engine replay drives a bare `EngineSession` with the same
//!   arrive/tick/drain sequence through a scheduler adapter that times
//!   every call into alg1/2/3, then runs the checker on the drained
//!   schedule.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use calib_core::json::{Json, ToJson};
use calib_core::obs::Counters;
use calib_core::{check_schedule, Instance, PriorityPolicy, Time};
use calib_online::{Decision, EngineConfig, EngineSession, EngineView, OnlineScheduler};
use calib_serve::journal::{FsyncPolicy, JournalWriter};
use calib_serve::session::SharedCountingProbe;
use calib_serve::{
    Admission, AdmitConfig, Algorithm, Reply, Request, RequestClock, ServeMetrics, SessionMetrics,
    TenantConfig, TenantMetrics, TenantSession, Verdict,
};

use crate::workload::{Op, Session, Topology, CHECKPOINT_EVERY, MAX_INFLIGHT};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    session: u32,
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// same replay code runs traced and untraced.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    session: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
            session: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            session: self.session,
        };
        self.spans.push(span);
        self.stack.push(id);
        Some(id)
    }

    /// Closes span `id`, returning its duration in ns.
    fn exit(&mut self, id: Option<u32>) -> u64 {
        let Some(id) = id else { return 0 };
        let now = self.now_ns();
        self.stack.pop();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Total time per span name, and the time of top-level spans, ns.
    fn aggregate(&self) -> Aggregate {
        let mut agg = Aggregate::default();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            *agg.total_ns.entry(s.name).or_default() += dur;
            if s.parent.is_none() {
                agg.top_level_ns += dur;
            }
        }
        agg
    }

    /// Writes every span as one JSON line.
    fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let line = Json::obj([
                ("name", s.name.to_json()),
                ("start_ns", s.start_ns.to_json()),
                ("end_ns", s.end_ns.to_json()),
                ("parent", s.parent.map(u64::from).to_json()),
                ("session", u64::from(s.session).to_json()),
            ]);
            writeln!(out, "{}", line.to_string_compact())?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct Aggregate {
    total_ns: BTreeMap<&'static str, u64>,
    top_level_ns: u64,
}

impl Aggregate {
    fn total_ms(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }
}

/// Counts the serve replay makes.
#[derive(Debug, Default)]
struct ServeTally {
    requests: u64,
    admit_pairs: u64,
}

/// The fleet layers a serve replay exercises, configured like the daemons.
struct FleetLayers<'a> {
    journal_dir: &'a Path,
    admission: Admission,
    /// Stands in for the daemon's registry, so that checkpoints carry the
    /// drained flow and cost as the daemon's do.
    metrics: Arc<ServeMetrics>,
}

/// Replays every request line of `sessions` the way a daemon worker
/// handles it. Checks each drain's accounting against the ground truth.
/// On a fleet the session journals and checkpoints through its own hooks
/// (`start_journal`, `set_checkpoint_policy`, `maybe_checkpoint`), so the
/// journal appends fall inside the `session.*` spans.
fn replay_serve(
    sessions: &[Session],
    fleet: Option<FleetLayers<'_>>,
    tracer: &mut Tracer,
) -> Result<ServeTally, String> {
    let mut tally = ServeTally::default();
    for (si, s) in sessions.iter().enumerate() {
        tracer.session = u32::try_from(si).unwrap_or(u32::MAX);
        let mut session: Option<TenantSession> = None;
        let mut tenant_metrics: Option<Arc<TenantMetrics>> = None;
        for step in &s.plan {
            tally.requests += 1;
            let sp = tracer.enter("protocol.parse");
            let parsed = Json::parse(step.line.trim()).map_err(|e| format!("replay parse: {e}"))?;
            let request =
                Request::from_json(&parsed).map_err(|(code, m)| format!("replay {code}: {m}"))?;
            tracer.exit(sp);

            let gated = matches!(
                request,
                Request::Arrive { .. } | Request::Tick { .. } | Request::Drain { .. }
            );
            if let Some(f) = fleet.as_ref() {
                let sp = tracer.enter("admit");
                f.admission.observe();
                let verdict = gated.then(|| f.admission.admit(&s.tenant));
                tracer.exit(sp);
                if verdict.is_some_and(|v| v != Verdict::Admit) {
                    return Err(format!("replay admission refused {}", s.tenant));
                }
            }
            let seq = request.seq();
            let reply = match request {
                Request::Hello {
                    tenant,
                    machines,
                    cal_len,
                    cal_cost,
                    algorithm,
                    weight,
                    seq,
                } => {
                    let algorithm = Algorithm::from_name(&algorithm)
                        .ok_or_else(|| format!("replay: unknown algorithm {algorithm}"))?;
                    let config = TenantConfig {
                        machines,
                        cal_len,
                        cal_cost,
                        algorithm,
                    };
                    let sp = tracer.enter("session.open");
                    let mut opened = TenantSession::new(&tenant, config, None)
                        .map_err(|e| format!("replay hello: {}", e.message))?;
                    if let Some(seq) = seq {
                        opened.note_seq(seq);
                    }
                    if let Some(f) = fleet.as_ref() {
                        JournalWriter::create(f.journal_dir, &tenant, FsyncPolicy::Tick)
                            .and_then(|w| opened.start_journal(w))
                            .map_err(|e| format!("journal start: {e}"))?;
                        opened.set_checkpoint_policy(Some(CHECKPOINT_EVERY), false);
                        let t = f.metrics.tenant(&tenant);
                        opened.set_metrics(SessionMetrics {
                            global: Arc::clone(&f.metrics),
                            tenant: Arc::clone(&t),
                        });
                        tenant_metrics = Some(t);
                        f.admission.register(&tenant, weight);
                    }
                    tracer.exit(sp);
                    session = Some(opened);
                    Reply::Ok { tenant, seq }
                }
                Request::Arrive { tenant, jobs, seq } => {
                    let sess = session.as_mut().ok_or("replay: arrive before hello")?;
                    let sp = tracer.enter("session.arrive");
                    sess.arrive(&jobs, seq)
                        .map_err(|e| format!("replay arrive: {}", e.message))?;
                    tracer.exit(sp);
                    Reply::Ok { tenant, seq }
                }
                Request::Tick { tenant, now, seq } => {
                    let sess = session.as_mut().ok_or("replay: tick before hello")?;
                    let sp = tracer.enter("session.tick");
                    let delta = sess
                        .tick(now, seq)
                        .map_err(|e| format!("replay tick: {}", e.message))?;
                    tracer.exit(sp);
                    Reply::Decisions {
                        tenant,
                        now: Some(now),
                        calibrations: delta.calibrations,
                        starts: delta.starts,
                        idle: sess.is_idle(),
                        seq,
                    }
                }
                Request::Drain { seq, .. } => {
                    let sess = session.as_mut().ok_or("replay: drain before hello")?;
                    let sp = tracer.enter("session.drain");
                    let delta = sess
                        .drain(seq)
                        .map_err(|e| format!("replay drain: {}", e.message))?;
                    tracer.exit(sp);
                    let sp = tracer.enter("session.accounting");
                    let accounting = sess.accounting();
                    tracer.exit(sp);
                    if let Some(t) = tenant_metrics.as_ref() {
                        t.set_totals(accounting.flow, accounting.cost);
                    }
                    if !accounting.checker_ok
                        || accounting.flow != s.expected_flow
                        || accounting.cost != s.expected_cost
                    {
                        return Err(format!(
                            "replay {}: accounting {}/{} differs from batch {}/{}",
                            s.tenant,
                            accounting.flow,
                            accounting.cost,
                            s.expected_flow,
                            s.expected_cost
                        ));
                    }
                    Reply::Drained {
                        accounting,
                        calibrations: delta.calibrations,
                        starts: delta.starts,
                        seq,
                    }
                }
                Request::Bye { tenant, seq } => {
                    let sess = session.take().ok_or("replay: bye before hello")?;
                    // Finalizing also removes the session's journal files.
                    let sp = tracer.enter("session.bye");
                    let (accounting, io) = sess.finalize();
                    tracer.exit(sp);
                    io.map_err(|e| format!("replay bye: {e}"))?;
                    if let Some(f) = fleet.as_ref() {
                        f.admission.deregister(&tenant);
                    }
                    Reply::Goodbye { accounting, seq }
                }
                other => return Err(format!("replay: unexpected request {other:?}")),
            };
            if let (Some(seq), Some(sess)) = (seq, session.as_mut()) {
                sess.note_seq(seq);
            }
            // The daemon's checkpoint opportunity: after a mutating request.
            if let (Some(sess), true) = (session.as_mut(), gated && fleet.is_some()) {
                let sp = tracer.enter("checkpoint");
                sess.maybe_checkpoint();
                tracer.exit(sp);
            }
            let sp = tracer.enter("protocol.serialize");
            let line = reply.to_line();
            tracer.exit(sp);
            std::hint::black_box(line);
            if let (Some(f), true) = (fleet.as_ref(), gated) {
                let sp = tracer.enter("admit");
                f.admission.complete(&s.tenant);
                tracer.exit(sp);
                tally.admit_pairs += 1;
            }
        }
    }
    Ok(tally)
}

/// An `OnlineScheduler` that times every call into the wrapped scheduler.
struct TimedScheduler {
    inner: Box<dyn OnlineScheduler + Send>,
    decide_ns: u64,
    wake_ns: Cell<u64>,
    calls: Cell<u64>,
}

impl TimedScheduler {
    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn OnlineScheduler) -> T) -> T {
        let started = Instant::now();
        let out = f(self.inner.as_mut());
        self.decide_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.set(self.calls.get() + 1);
        out
    }
}

impl OnlineScheduler for TimedScheduler {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn auto_policy(&self) -> PriorityPolicy {
        self.inner.auto_policy()
    }

    fn decide_early(&mut self, view: &EngineView) -> Decision {
        self.timed(|s| s.decide_early(view))
    }

    fn decide_late(&mut self, view: &EngineView) -> Decision {
        self.timed(|s| s.decide_late(view))
    }

    fn next_wake(&self, view: &EngineView) -> Option<Time> {
        let started = Instant::now();
        let out = self.inner.next_wake(view);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.wake_ns.set(self.wake_ns.get() + ns);
        self.calls.set(self.calls.get() + 1);
        out
    }
}

/// What the engine replay counted.
#[derive(Debug, Default)]
struct EngineTally {
    decide_ns: u64,
    wake_ns: u64,
    scheduler_calls: u64,
    events: u64,
    wakes: u64,
    time_skips: u64,
}

/// Drives a bare `EngineSession` per session with the same operations,
/// then checks the drained schedule with the batch checker.
fn replay_engine(sessions: &[Session], tracer: &mut Tracer) -> Result<EngineTally, String> {
    let mut tally = EngineTally::default();
    for (si, s) in sessions.iter().enumerate() {
        tracer.session = u32::try_from(si).unwrap_or(u32::MAX);
        let counters = Arc::new(Counters::new());
        let probe = SharedCountingProbe(Arc::clone(&counters));
        let mut engine = EngineSession::with_probe(
            s.machines,
            s.cal_len,
            s.cal_cost,
            EngineConfig::default(),
            probe,
        )
        .map_err(|e| format!("engine replay: {e}"))?;
        let mut scheduler = TimedScheduler {
            inner: s.algorithm.scheduler(),
            decide_ns: 0,
            wake_ns: Cell::new(0),
            calls: Cell::new(0),
        };
        for op in &s.ops {
            let result = match op {
                Op::Arrive(jobs) => {
                    let sp = tracer.enter("engine.submit");
                    let r = engine.submit(jobs).map(|_| ());
                    tracer.exit(sp);
                    r
                }
                Op::Tick(now) => {
                    let sp = tracer.enter("engine.step");
                    let r = engine
                        .step(*now, &[], &mut scheduler)
                        .map(std::hint::black_box);
                    tracer.exit(sp);
                    r.map(|_| ())
                }
                Op::Drain => {
                    let sp = tracer.enter("engine.drain");
                    let r = engine.drain(&mut scheduler).map(std::hint::black_box);
                    tracer.exit(sp);
                    r.map(|_| ())
                }
            };
            result.map_err(|e| format!("engine replay {}: {e}", s.tenant))?;
        }
        let schedule = engine.schedule_snapshot();
        let instance = Instance::new(engine.submitted_jobs(), s.machines, s.cal_len)
            .map_err(|e| format!("engine replay instance: {e}"))?;
        let sp = tracer.enter("checker.check");
        let checked = check_schedule(&instance, &schedule);
        tracer.exit(sp);
        let sp = tracer.enter("checker.flow");
        let flow = schedule.total_weighted_flow(&instance);
        tracer.exit(sp);
        if checked.is_err() || flow != s.expected_flow {
            return Err(format!(
                "engine replay {}: checker {:?}, flow {flow} vs batch {}",
                s.tenant,
                checked.is_ok(),
                s.expected_flow
            ));
        }
        let c = counters.snapshot();
        tally.events += c.events;
        tally.wakes += c.wakes;
        tally.time_skips += c.time_skips;
        tally.decide_ns += scheduler.decide_ns;
        tally.wake_ns += scheduler.wake_ns.get();
        tally.scheduler_calls += scheduler.calls.get();
    }
    Ok(tally)
}

/// The replay's results: per-layer metrics and what coverage needs.
pub struct ReplayReport {
    /// `(name, unit, value)`, in output order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Traced layer time per replayed request, ns.
    pub layer_ns_per_request: f64,
}

/// Runs the replays for `sessions` (serve passes: warm-up, traced,
/// untraced; then the traced engine pass) and writes every span to
/// `spans_path`.
pub fn run(
    sessions: &[Session],
    topology: Topology,
    work_dir: &Path,
    spans_path: &Path,
) -> Result<ReplayReport, String> {
    let serve_pass = |tracer: &mut Tracer, dir: &str| -> Result<(ServeTally, f64), String> {
        let journal_dir = work_dir.join(dir);
        let fleet = match topology {
            Topology::Fleet => {
                let _ = std::fs::remove_dir_all(&journal_dir);
                std::fs::create_dir_all(&journal_dir)
                    .map_err(|e| format!("replay journal dir: {e}"))?;
                let config = AdmitConfig {
                    max_inflight: Some(MAX_INFLIGHT),
                    ..AdmitConfig::default()
                };
                Some(FleetLayers {
                    journal_dir: &journal_dir,
                    admission: Admission::new(config, Arc::new(RequestClock::new())),
                    metrics: Arc::new(ServeMetrics::new()),
                })
            }
            Topology::Direct => None,
        };
        let started = Instant::now();
        let tally = replay_serve(sessions, fleet, tracer);
        let wall = started.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&journal_dir);
        tally.map(|t| (t, wall))
    };

    // A first untraced pass only warms up; the traced pass is then compared
    // with the untraced pass after it.
    serve_pass(&mut Tracer::new(false), "replay-warmup")?;
    let mut serve_tracer = Tracer::new(true);
    let (tally, traced_s) = serve_pass(&mut serve_tracer, "replay-traced")?;
    let (_, untraced_s) = serve_pass(&mut Tracer::new(false), "replay-untraced")?;
    let mut engine_tracer = Tracer::new(true);
    let engine = replay_engine(sessions, &mut engine_tracer)?;

    let serve = serve_tracer.aggregate();
    let eng = engine_tracer.aggregate();
    // One file: the serve replay's spans, then the engine replay's.
    std::fs::File::create(spans_path)
        .map(std::io::BufWriter::new)
        .and_then(|mut out| {
            serve_tracer.write(&mut out)?;
            engine_tracer.write(&mut out)?;
            out.flush()
        })
        .map_err(|e| format!("write spans: {e}"))?;

    let overhead_pct = (traced_s - untraced_s) / untraced_s.max(1e-9) * 100.0;
    Ok(ReplayReport::new(
        &serve,
        &eng,
        &tally,
        &engine,
        overhead_pct,
    ))
}

impl ReplayReport {
    fn new(
        serve: &Aggregate,
        eng: &Aggregate,
        tally: &ServeTally,
        engine: &EngineTally,
        overhead_pct: f64,
    ) -> ReplayReport {
        let engine_ms = eng.total_ms("engine.submit")
            + eng.total_ms("engine.step")
            + eng.total_ms("engine.drain");
        let decide_ms = engine.decide_ns as f64 / 1e6;
        let wake_ms = engine.wake_ns as f64 / 1e6;
        let admit_ns = serve.total_ns.get("admit").copied().unwrap_or(0) as f64;
        let per_pair = |x: f64| {
            if tally.admit_pairs == 0 {
                0.0
            } else {
                x / tally.admit_pairs as f64
            }
        };

        let metrics = vec![
            ("protocol.parse_ms", "ms", serve.total_ms("protocol.parse")),
            (
                "protocol.serialize_ms",
                "ms",
                serve.total_ms("protocol.serialize"),
            ),
            ("session.open_ms", "ms", serve.total_ms("session.open")),
            ("session.arrive_ms", "ms", serve.total_ms("session.arrive")),
            ("session.tick_ms", "ms", serve.total_ms("session.tick")),
            ("session.drain_ms", "ms", serve.total_ms("session.drain")),
            (
                "session.accounting_ms",
                "ms",
                serve.total_ms("session.accounting"),
            ),
            ("session.bye_ms", "ms", serve.total_ms("session.bye")),
            ("engine.step_ms", "ms", eng.total_ms("engine.step")),
            ("engine.drain_ms", "ms", eng.total_ms("engine.drain")),
            ("engine.submit_ms", "ms", eng.total_ms("engine.submit")),
            ("engine.self_ms", "ms", engine_ms - decide_ms - wake_ms),
            ("engine.events", "count", engine.events as f64),
            ("engine.wakes", "count", engine.wakes as f64),
            ("engine.time_skips", "count", engine.time_skips as f64),
            ("scheduler.decide_ms", "ms", decide_ms),
            ("scheduler.next_wake_ms", "ms", wake_ms),
            ("scheduler.calls", "count", engine.scheduler_calls as f64),
            ("checker.check_ms", "ms", eng.total_ms("checker.check")),
            ("checker.flow_ms", "ms", eng.total_ms("checker.flow")),
            ("admit.call_ns", "ns", per_pair(admit_ns)),
            ("trace.overhead_pct", "%", overhead_pct),
        ];
        ReplayReport {
            metrics,
            layer_ns_per_request: serve.top_level_ns as f64 / tally.requests.max(1) as f64,
        }
    }

    /// The report of a replay that failed: every metric present, at 0.
    pub fn zeroed() -> ReplayReport {
        ReplayReport::new(
            &Aggregate::default(),
            &Aggregate::default(),
            &ServeTally::default(),
            &EngineTally::default(),
            0.0,
        )
    }
}
