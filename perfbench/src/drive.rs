//! The closed-loop load: two connections, each running tenant sessions
//! one after another through the real client library
//! (`calib_serve::run_plan`) with 32 requests in flight.

use std::time::{Duration, Instant};

use calib_core::json::Json;
use calib_serve::{run_plan, Backoff, ClientConfig, RetryClock};

use crate::workload::{Kind, Session};

/// Concurrent connections, one client thread each.
pub const CONNECTIONS: usize = 2;
/// Requests in flight per connection.
pub const WINDOW: usize = 32;
/// Pool slots rotate through this many algorithms; a timed phase stops
/// only after a whole rotation, so each algorithm runs equally often.
pub const ALGORITHMS: usize = 3;

/// What the timed phase produced, summed over both connections.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Sessions run, and how many failed their checks.
    pub sessions: u64,
    pub sessions_failed: u64,
    /// Requests in the plans run (each counted once, however often sent).
    pub attempted: u64,
    /// Requests of failed sessions.
    pub failed: u64,
    /// Replies matched to plan steps.
    pub replies: u64,
    /// Calibrations plus starts of the sessions that completed and passed
    /// their check (from the ground truth: a reply lost to a reconnect
    /// still delivered its decisions to the session).
    pub decisions: u64,
    /// Client reconnections, successful resumes and typed overload
    /// rejections the client saw.
    pub reconnects: u64,
    pub resumes: u64,
    pub sheds: u64,
    /// Time clients slept in reconnect backoff, seconds.
    pub backoff_s: f64,
    /// Send-to-reply latencies of `tick` and `drain` requests, µs.
    pub tick_us: Vec<f64>,
    pub drain_us: Vec<f64>,
    /// Sessions whose replies could not be matched to request kinds (a
    /// reconnect lost some replies); their tick latencies are left out.
    pub unmapped_sessions: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Wall time of the timed phase, seconds: until the last connection
    /// finished its last session.
    pub wall_s: f64,
    /// Sum over connections of the decisions of its checked sessions per
    /// second of its busy time.
    pub decisions_per_s: f64,
}

impl LoadReport {
    fn merge(&mut self, other: LoadReport) {
        self.sessions += other.sessions;
        self.sessions_failed += other.sessions_failed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.replies += other.replies;
        self.decisions += other.decisions;
        self.reconnects += other.reconnects;
        self.resumes += other.resumes;
        self.sheds += other.sheds;
        self.backoff_s += other.backoff_s;
        self.tick_us.extend(other.tick_us);
        self.drain_us.extend(other.drain_us);
        self.unmapped_sessions += other.unmapped_sessions;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Checks a drained reply against the batch ground truth, exactly.
pub fn check_drained(reply: &Json, session: &Session) -> Result<(), String> {
    let name = &session.tenant;
    if reply.get("type").and_then(Json::as_str) != Some("drained") {
        return Err(format!("{name}: drain did not return `drained`"));
    }
    if reply.get("checker_ok") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{name}: the checker rejected the schedule: {:?}",
            reply.get("violations")
        ));
    }
    let flow = reply.get("flow").and_then(Json::as_u128);
    let cost = reply.get("cost").and_then(Json::as_u128);
    if flow != Some(session.expected_flow) || cost != Some(session.expected_cost) {
        return Err(format!(
            "{name}: daemon flow/cost {flow:?}/{cost:?}, batch {}/{}",
            session.expected_flow, session.expected_cost
        ));
    }
    Ok(())
}

/// A real sleeping clock that adds up how long it slept.
struct SleepTally(Duration);

impl RetryClock for SleepTally {
    fn sleep(&mut self, d: Duration) {
        std::thread::sleep(d);
        self.0 += d;
    }
}

fn run_session(addr: &str, session: &Session, seed: u64, out: &mut LoadReport) {
    let cfg = ClientConfig {
        tenant: session.tenant.clone(),
        window: WINDOW,
        // Overloaded drains take seconds; a stalled daemon still surfaces.
        deadline: Some(Duration::from_secs(120)),
        max_reconnects: 64,
        resume_on_start: false,
    };
    let mut backoff = Backoff::new(5, 500, seed);
    let mut clock = SleepTally(Duration::ZERO);
    let report = run_plan(addr, &cfg, &session.plan, &mut backoff, &mut clock);
    out.backoff_s += clock.0.as_secs_f64();

    let steps = session.plan.len() as u64;
    out.sessions += 1;
    out.attempted += steps;
    out.replies += report.replies;
    out.reconnects += report.reconnects;
    out.resumes += report.resumes;
    out.sheds += report.sheds;

    let verdict = if !report.completed || !report.errors.is_empty() {
        Err(format!(
            "{}: plan did not complete cleanly: {:?}",
            session.tenant, report.errors
        ))
    } else {
        match report.captured_for(session.drain_seq) {
            Some(reply) => check_drained(reply, session),
            None => Err(format!("{}: no drain reply captured", session.tenant)),
        }
    };
    match verdict {
        Ok(()) => out.decisions += session.expected_decisions,
        Err(e) => {
            out.sessions_failed += 1;
            out.failed += steps;
            if out.errors.len() < 8 {
                out.errors.push(e);
            }
            return;
        }
    }

    // `bye` goes out only once every earlier reply is in, so the drain's
    // sample is the second-to-last one even after a reconnect.
    let lat = &report.latencies_us;
    if lat.len() >= 2 {
        out.drain_us.push(lat[lat.len() - 2]);
    }
    // Without a reconnect every step is acknowledged once, in plan order;
    // after one, the lost replies leave gaps that hide which sample
    // belongs to which tick.
    if report.reconnects == 0 && lat.len() == session.kinds.len() {
        for (kind, &us) in session.kinds.iter().zip(lat) {
            if *kind == Kind::Tick {
                out.tick_us.push(us);
            }
        }
    } else {
        out.unmapped_sessions += 1;
    }
}

/// Runs the closed loop against `addr`. Connection `c` runs its sessions
/// `pool[c]` in order from slot `c * stagger` and wraps around, so a
/// tenant name is reopened only
/// after its previous session said `bye`. Once `seconds` have passed it
/// finishes the group of `stop_every` sessions in progress and stops.
pub fn run_closed_loop(
    addr: &str,
    pool: &[Vec<Session>],
    seconds: f64,
    stagger: usize,
    stop_every: usize,
    seed: u64,
) -> LoadReport {
    let started = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut total = LoadReport::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .iter()
            .enumerate()
            .map(|(c, sessions)| {
                scope.spawn(move || {
                    let mut out = LoadReport::default();
                    let start = c * stagger;
                    for (i, session) in sessions.iter().cycle().skip(start).enumerate() {
                        let backoff_seed = seed
                            ^ ((i * pool.len() + c) as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
                        run_session(addr, session, backoff_seed, &mut out);
                        if (i + 1) % stop_every == 0 && started.elapsed() >= deadline {
                            break;
                        }
                    }
                    out.wall_s = started.elapsed().as_secs_f64();
                    out
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(out) => {
                    // Each connection's rate over its own busy time, so the
                    // tail in which one connection already stopped does not
                    // dilute the other's.
                    total.decisions_per_s += out.decisions as f64 / out.wall_s;
                    total.merge(out);
                }
                Err(_) => total.errors.push("client thread panicked".to_string()),
            }
        }
    });
    total.wall_s = started.elapsed().as_secs_f64();
    total
}
