//! Client-side resilience: seeded exponential backoff and a reconnecting,
//! resuming, idempotently-resending protocol client.
//!
//! The driver is a *plan*: the full, `seq`-numbered request script a
//! client intends to send (`calib-loadgen` builds one per tenant). The
//! plan makes resending trivial and exact — after any anomaly the client
//! reconnects, asks the server to `resume` the tenant, learns the
//! server's `last_seq` high-water mark, and resends precisely the
//! un-acked tail. Requests are idempotent on the wire because the server
//! suppresses duplicates by `seq` (answering benignly) and rejects gaps
//! with `seq-gap`, so at-least-once delivery composes into exactly-once
//! application.
//!
//! Backoff delays are computed purely from the attempt counter and a
//! seeded RNG — no wall-clock reads in the decision path — and sleeping
//! goes through the injected [`RetryClock`], so tests drive the whole
//! retry schedule deterministically and instantly.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use calib_core::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sleeping side of retrying, injected so tests can fake time.
pub trait RetryClock {
    /// Blocks the caller for `d`.
    fn sleep(&mut self, d: Duration);
}

/// The production clock: a real `thread::sleep`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl RetryClock for SystemClock {
    fn sleep(&mut self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Seeded exponential backoff with jitter.
///
/// Delay for attempt `k` is drawn uniformly from `[cap/2, cap]` where
/// `cap = min(base << k, max)` — "decorrelated-ish" jitter that keeps a
/// reconnect herd from synchronizing, yet is fully deterministic in the
/// seed (no wall-clock input).
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    attempt: u32,
    rng: StdRng,
}

impl Backoff {
    /// A backoff starting at `base_ms` and saturating at `cap_ms`.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        let base_ms = base_ms.max(1);
        Backoff {
            base_ms,
            cap_ms: cap_ms.max(base_ms),
            attempt: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Attempts since the last [`Backoff::reset`].
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The next delay; grows the attempt counter.
    pub fn next_delay(&mut self) -> Duration {
        let shift = self.attempt.min(16);
        let cap = self
            .base_ms
            .saturating_mul(1u64 << shift)
            .min(self.cap_ms)
            .max(1);
        self.attempt = self.attempt.saturating_add(1);
        let ms = self.rng.gen_range(cap.div_ceil(2)..=cap);
        Duration::from_millis(ms)
    }

    /// Back to the base delay — call after any successful progress.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// One scripted request in a client plan.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The step's sequence number; plans must use contiguous seqs starting
    /// anywhere (loadgen starts at 0).
    pub seq: u64,
    /// The full request line, newline included, with `"seq"` embedded.
    pub line: String,
    /// Keep this step's reply (drain/bye accounting) for the caller.
    pub capture: bool,
    /// True for the closing `bye` — if the tenant is gone when we try to
    /// resume and only bye-steps remain, the session closed successfully.
    pub is_bye: bool,
}

impl PlanStep {
    /// A plan step from request fields; appends `seq` and serializes.
    pub fn new(
        seq: u64,
        mut fields: Vec<(&'static str, Json)>,
        capture: bool,
        is_bye: bool,
    ) -> PlanStep {
        use calib_core::json::ToJson;
        fields.push(("seq", seq.to_json()));
        let mut line = Json::obj(fields).to_string_compact();
        line.push('\n');
        PlanStep {
            seq,
            line,
            capture,
            is_bye,
        }
    }
}

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The tenant this plan drives.
    pub tenant: String,
    /// Pipeline window (in-flight request cap).
    pub window: usize,
    /// Per-request reply deadline; a stalled server surfaces as a typed
    /// failure (and a reconnect), never a hang. `None` waits forever.
    pub deadline: Option<Duration>,
    /// Consecutive connect/resume/read failures tolerated before giving
    /// up (the counter resets on any acked reply).
    pub max_reconnects: u32,
    /// Send `resume` on the *first* connection too — the restart-recovery
    /// path, where the plan was partially applied by a previous process.
    pub resume_on_start: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            tenant: String::new(),
            window: 32,
            deadline: Some(Duration::from_secs(10)),
            max_reconnects: 64,
            resume_on_start: false,
        }
    }
}

/// What [`run_plan`] did.
#[derive(Debug, Default)]
pub struct ClientReport {
    /// True when every plan step was acked.
    pub completed: bool,
    /// Replies matched to plan steps.
    pub replies: u64,
    /// Calibrations + starts observed across all decision deltas.
    pub decisions: u64,
    /// Reconnections performed.
    pub reconnects: u64,
    /// Successful `resumed` handshakes.
    pub resumes: u64,
    /// `tenant-moved` redirects followed (migrations observed mid-stream).
    pub redirects: u64,
    /// Captured replies, keyed by plan seq.
    pub captured: Vec<(u64, Json)>,
    /// Per-acked-reply latencies in microseconds.
    pub latencies_us: Vec<f64>,
    /// Typed overload rejections (`shed`/`rate-limited`) honored via the
    /// server-supplied `retry_after_ms`.
    pub sheds: u64,
    /// Protocol-level failures (typed server errors, final give-up).
    pub errors: Vec<String>,
}

impl ClientReport {
    /// The captured reply for `seq`, if any.
    pub fn captured_for(&self, seq: u64) -> Option<&Json> {
        self.captured
            .iter()
            .find(|(s, _)| *s == seq)
            .map(|(_, v)| v)
    }
}

/// Why the streaming loop stopped.
enum Drive {
    /// Every plan step acked.
    Done,
    /// Connection-level anomaly; reconnect and resume. A server-supplied
    /// retry-after (from a typed `shed`/`rate-limited` rejection) overrides
    /// the exponential backoff for this one sleep.
    Reconnect(String, Option<Duration>),
}

/// What the resume handshake concluded.
enum Resume {
    /// Server restored the session; resend from its `last_seq`.
    Resumed(Option<u64>),
    /// Tenant unknown in memory and on disk.
    Unknown,
    /// Transient failure (still attached, I/O, timeout): back off, retry.
    Retry(String),
}

/// Executes `plan` against the daemon at `addr`, reconnecting, resuming,
/// and resending through any connection-level fault until every step is
/// acked or the retry budget is exhausted.
pub fn run_plan(
    addr: &str,
    cfg: &ClientConfig,
    plan: &[PlanStep],
    backoff: &mut Backoff,
    clock: &mut dyn RetryClock,
) -> ClientReport {
    let mut report = ClientReport::default();
    let mut acked: usize = 0;
    let mut need_resume = cfg.resume_on_start;
    let mut failures: u32 = 0;
    loop {
        if acked >= plan.len() {
            report.completed = true;
            return report;
        }
        // Reconnect budget check happens on failures, not up front, so the
        // first connection is always attempted.
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                if give_up(&mut report, &mut failures, cfg, format!("connect: {e}")) {
                    return report;
                }
                clock.sleep(backoff.next_delay());
                continue;
            }
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(cfg.deadline).ok();
        let reader_half = match stream.try_clone() {
            Ok(s) => s,
            Err(e) => {
                if give_up(&mut report, &mut failures, cfg, format!("clone: {e}")) {
                    return report;
                }
                clock.sleep(backoff.next_delay());
                continue;
            }
        };
        let mut reader = BufReader::new(reader_half);
        let mut writer = BufWriter::new(stream);

        if need_resume {
            match do_resume(&mut reader, &mut writer, &cfg.tenant) {
                Resume::Resumed(last_seq) => {
                    report.resumes += 1;
                    acked = recompute_acked(plan, last_seq, &report.captured);
                }
                Resume::Unknown => {
                    if acked == 0 && report.captured.is_empty() {
                        // Nothing was ever applied; start the plan fresh.
                    } else if plan[acked..].iter().all(|s| s.is_bye) {
                        // Only the goodbye ack was lost; the tenant closed.
                        report.completed = true;
                        return report;
                    } else {
                        report
                            .errors
                            .push("resume: session lost (unknown-tenant)".to_string());
                        return report;
                    }
                }
                Resume::Retry(why) => {
                    if give_up(&mut report, &mut failures, cfg, why) {
                        return report;
                    }
                    clock.sleep(backoff.next_delay());
                    continue;
                }
            }
        }
        // Every subsequent connection is a *re*-connection.
        need_resume = true;

        match drive(
            &mut reader,
            &mut writer,
            plan,
            &mut acked,
            cfg,
            &mut report,
            &mut failures,
            backoff,
        ) {
            Drive::Done => {
                report.completed = true;
                return report;
            }
            Drive::Reconnect(why, after) => {
                report.reconnects += 1;
                if give_up(&mut report, &mut failures, cfg, why) {
                    return report;
                }
                // A server-supplied retry-after is authoritative: sleep
                // exactly that long, not the jittered exponential default
                // (which stays un-advanced so a later anomaly restarts the
                // ramp from where it left off).
                match after {
                    Some(d) => clock.sleep(d),
                    None => clock.sleep(backoff.next_delay()),
                }
            }
        }
    }
}

/// Bumps the failure counter; on budget exhaustion records the reason and
/// reports failure.
fn give_up(report: &mut ClientReport, failures: &mut u32, cfg: &ClientConfig, why: String) -> bool {
    *failures += 1;
    if *failures > cfg.max_reconnects {
        report.errors.push(format!(
            "retry budget exhausted ({} failures): {why}",
            failures
        ));
        return true;
    }
    false
}

/// Sends `resume` and interprets the server's answer.
fn do_resume(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    tenant: &str,
) -> Resume {
    use calib_core::json::ToJson;
    let mut line =
        Json::obj([("type", "resume".to_json()), ("tenant", tenant.to_json())]).to_string_compact();
    line.push('\n');
    if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
        return Resume::Retry("resume: write failed".to_string());
    }
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) => return Resume::Retry("resume: connection closed".to_string()),
        Ok(_) => {}
        Err(e) => return Resume::Retry(format!("resume: read: {e}")),
    }
    let Ok(v) = Json::parse(reply.trim()) else {
        return Resume::Retry("resume: unparseable reply".to_string());
    };
    match v.get("type").and_then(Json::as_str) {
        Some("resumed") => Resume::Resumed(v.get("last_seq").and_then(Json::as_u64)),
        Some("error") => match v.get("code").and_then(Json::as_str) {
            Some("unknown-tenant") => Resume::Unknown,
            Some(code) => Resume::Retry(format!("resume: server error `{code}`")),
            None => Resume::Retry("resume: untyped error".to_string()),
        },
        _ => Resume::Retry("resume: unexpected reply type".to_string()),
    }
}

/// Where to restart the plan after a `resumed` handshake: just past the
/// server's high-water mark, rewound to the earliest capture step whose
/// reply we never saw (its duplicate-suppressed resend re-serves the
/// payload — a `drained` duplicate carries the full accounting).
fn recompute_acked(plan: &[PlanStep], last_seq: Option<u64>, captured: &[(u64, Json)]) -> usize {
    let mut acked = match last_seq {
        None => 0,
        Some(s) => plan.iter().position(|p| p.seq > s).unwrap_or(plan.len()),
    };
    for (i, step) in plan.iter().enumerate().take(acked) {
        if step.capture && !captured.iter().any(|(s, _)| *s == step.seq) {
            acked = i;
            break;
        }
    }
    acked
}

/// Streams the un-acked plan tail through the pipeline window, matching
/// replies FIFO by `seq`.
#[allow(clippy::too_many_arguments)]
fn drive(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    plan: &[PlanStep],
    acked: &mut usize,
    cfg: &ClientConfig,
    report: &mut ClientReport,
    failures: &mut u32,
    backoff: &mut Backoff,
) -> Drive {
    let window = cfg.window.max(1);
    let mut next = *acked;
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut line = String::new();
    loop {
        while next < plan.len() && in_flight.len() < window {
            // `bye` is destructive: the server finalizes the session and
            // deletes its journal. If a pipelined bye lands while an
            // earlier reply (say the drain's) is lost in transit, the next
            // `resume` hears a truthful `unknown-tenant` with non-bye steps
            // still unacked — indistinguishable from real session loss. So
            // a bye only goes out once the window has fully drained; then
            // the sole lossable ack is the bye's own, which the
            // unknown-tenant grace below recovers.
            if plan[next].is_bye && !in_flight.is_empty() {
                break;
            }
            if writer.write_all(plan[next].line.as_bytes()).is_err() || writer.flush().is_err() {
                return Drive::Reconnect("write failed".to_string(), None);
            }
            in_flight.push_back((next, Instant::now()));
            next += 1;
        }
        if in_flight.is_empty() {
            debug_assert!(next >= plan.len());
            return Drive::Done;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Drive::Reconnect("server closed the connection".to_string(), None),
            Ok(_) => {}
            Err(e) => return Drive::Reconnect(format!("read: {e}"), None),
        }
        let Ok(v) = Json::parse(line.trim()) else {
            return Drive::Reconnect("unparseable reply".to_string(), None);
        };
        let ty = v.get("type").and_then(Json::as_str).unwrap_or("");
        if ty == "pong" || ty == "resumed" {
            // Stray handshake duplicates (an injected fault can double any
            // line); they are outside the plan's seq chain.
            continue;
        }
        let Some(&(front, sent_at)) = in_flight.front() else {
            continue;
        };
        let front_seq = plan[front].seq;
        let Some(reply_seq) = v.get("seq").and_then(Json::as_u64) else {
            // A connection-level error (bad-json from a torn write, a
            // read-timeout warning): the request stream is corrupt.
            return Drive::Reconnect(format!("unsequenced reply: {}", line.trim()), None);
        };
        let code = if ty == "error" {
            v.get("code").and_then(Json::as_str).unwrap_or("?")
        } else {
            ""
        };
        if code == "shed" || code == "rate-limited" {
            // Overload rejections: the in-flight budget shed a request
            // (`shed`, connection may be dropped) or the weighted token
            // bucket ran dry (`rate-limited`). The daemon decides both when
            // the request arrives, so the rejection can overtake replies to
            // earlier requests still in its queue: it is classified before
            // the seq match, whatever its seq. Both carry an authoritative
            // `retry_after_ms`; honor it exactly, then resynchronize — the
            // rejection did not advance the seq chain, so pipelined
            // successors would land in a `seq-gap` anyway.
            report.sheds += 1;
            let after = v
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .map(Duration::from_millis);
            return Drive::Reconnect(format!("server overloaded: `{code}`"), after);
        }
        if reply_seq < front_seq {
            // Stale duplicate of an already-acked reply.
            continue;
        }
        if reply_seq > front_seq {
            // The reply to our front request was lost in transit.
            return Drive::Reconnect(
                format!("reply seq {reply_seq} overtook expected {front_seq}"),
                None,
            );
        }
        in_flight.pop_front();
        report
            .latencies_us
            .push(sent_at.elapsed().as_secs_f64() * 1_000_000.0);
        report.replies += 1;
        if ty == "error" {
            match code {
                // Recoverable by resynchronizing: an earlier line was
                // lost (`seq-gap`), dropped under backpressure (`busy`),
                // or the tenant migrated to another shard mid-stream
                // (`tenant-moved`) / its shard is momentarily unreachable
                // through the router (`shard-unreachable`) — in all four
                // cases a fresh connection plus `resume` lands the client
                // on the session's current owner at the right seq.
                "seq-gap" | "busy" | "tenant-moved" | "shard-unreachable" => {
                    report.redirects += u64::from(code == "tenant-moved");
                    return Drive::Reconnect(format!("server asked to resync: `{code}`"), None);
                }
                _ => report
                    .errors
                    .push(format!("server error `{code}` for seq {reply_seq}")),
            }
        } else {
            // Decision deltas sit at top level for tick/decisions replies
            // and under `decisions` for drained ones.
            let delta = v.get("decisions").unwrap_or(&v);
            for key in ["calibrations", "starts"] {
                if let Some(arr) = delta.get(key).and_then(Json::as_arr) {
                    report.decisions += u64::try_from(arr.len()).unwrap_or(0);
                }
            }
            if plan[front].capture {
                report.captured.retain(|(s, _)| *s != front_seq);
                report.captured.push((front_seq, v.clone()));
            }
        }
        *acked = front + 1;
        // Progress: refill the retry budget and cool the backoff.
        *failures = 0;
        backoff.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_in_seed_and_grows_to_cap() {
        let mut a = Backoff::new(10, 1000, 42);
        let mut b = Backoff::new(10, 1000, 42);
        let da: Vec<Duration> = (0..12).map(|_| a.next_delay()).collect();
        let db: Vec<Duration> = (0..12).map(|_| b.next_delay()).collect();
        assert_eq!(da, db, "same seed, same schedule");
        // Every delay respects the jitter envelope of its attempt.
        for (k, d) in da.iter().enumerate() {
            let cap = 10u64.saturating_mul(1 << k.min(16)).min(1000);
            let ms = u64::try_from(d.as_millis()).unwrap_or(u64::MAX);
            assert!(
                ms >= cap.div_ceil(2) && ms <= cap,
                "attempt {k}: {ms}ms vs cap {cap}"
            );
        }
        // Late attempts saturate at the cap envelope.
        let last = da.last().copied().unwrap_or_default().as_millis();
        assert!((500..=1000).contains(&last), "saturated delay: {last}ms");

        let mut c = Backoff::new(10, 1000, 43);
        let dc: Vec<Duration> = (0..12).map(|_| c.next_delay()).collect();
        assert_ne!(da, dc, "different seed, different jitter");
    }

    #[test]
    fn backoff_reset_restarts_the_ramp() {
        let mut b = Backoff::new(8, 4096, 7);
        for _ in 0..6 {
            b.next_delay();
        }
        assert_eq!(b.attempt(), 6);
        b.reset();
        assert_eq!(b.attempt(), 0);
        let d = b.next_delay();
        assert!(d.as_millis() <= 8, "first delay after reset is base-sized");
    }

    #[test]
    fn recompute_acked_rewinds_to_uncaptured_captures() {
        use calib_core::json::ToJson;
        let plan: Vec<PlanStep> = (0..6)
            .map(|i| {
                PlanStep::new(
                    i,
                    vec![("type", "tick".to_json()), ("tenant", "t".to_json())],
                    i == 4, // the drain-like capture step
                    i == 5,
                )
            })
            .collect();
        // Server applied everything through seq 5, but we never saw the
        // capture reply for seq 4: rewind there.
        assert_eq!(recompute_acked(&plan, Some(5), &[]), 4);
        // With the capture in hand, seq 5 onward remains.
        let captured = vec![(4u64, Json::Bool(true))];
        assert_eq!(recompute_acked(&plan, Some(5), &captured), 6);
        // Server never saw anything: start over.
        assert_eq!(recompute_acked(&plan, None, &captured), 0);
        // Partial application: resend from just past last_seq.
        assert_eq!(recompute_acked(&plan, Some(2), &captured), 3);
    }

    /// A deterministic fake clock that records every sleep instead of
    /// blocking.
    struct FakeClock(Vec<Duration>);
    impl RetryClock for FakeClock {
        fn sleep(&mut self, d: Duration) {
            self.0.push(d);
        }
    }

    /// A scripted one-thread server: accepts connections in order, and for
    /// each connection reads request lines and answers from its script
    /// (closing the connection when the script runs out). Returns every
    /// request line received, grouped by connection.
    fn scripted_server(
        listener: std::net::TcpListener,
        scripts: Vec<Vec<&'static str>>,
    ) -> std::thread::JoinHandle<Vec<Vec<String>>> {
        std::thread::spawn(move || {
            let mut received = Vec::new();
            for script in scripts {
                let (stream, _) = listener.accept().expect("accept");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut lines = Vec::new();
                for reply in script {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break;
                    }
                    lines.push(line.trim().to_string());
                    writer
                        .write_all(reply.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .and_then(|()| writer.flush())
                        .expect("reply");
                }
                received.push(lines);
            }
            received
        })
    }

    fn tick_plan(n: u64) -> Vec<PlanStep> {
        use calib_core::json::ToJson;
        (0..n)
            .map(|i| {
                PlanStep::new(
                    i,
                    vec![("type", "tick".to_json()), ("tenant", "t".to_json())],
                    false,
                    false,
                )
            })
            .collect()
    }

    fn one_shot_config() -> ClientConfig {
        ClientConfig {
            tenant: "t".to_string(),
            window: 1, // one request in flight: scripts stay deterministic
            ..ClientConfig::default()
        }
    }

    #[test]
    fn retry_after_overrides_the_backoff_schedule_exactly() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = scripted_server(
            listener,
            vec![
                // Conn 1: rate-limit seq 0 with an exact retry-after.
                vec![r#"{"type":"error","code":"rate-limited","retry_after_ms":37,"seq":0}"#],
                // Conn 2: resume from scratch, ack seq 0, shed seq 1.
                vec![
                    r#"{"type":"resumed","tenant":"t"}"#,
                    r#"{"type":"ok","tenant":"t","seq":0}"#,
                    r#"{"type":"error","code":"shed","retry_after_ms":123,"seq":1}"#,
                ],
                // Conn 3: resume past seq 0, ack the resent seq 1.
                vec![
                    r#"{"type":"resumed","tenant":"t","last_seq":0}"#,
                    r#"{"type":"ok","tenant":"t","seq":1}"#,
                ],
            ],
        );
        let plan = tick_plan(2);
        let mut clock = FakeClock(Vec::new());
        // A backoff whose every jittered delay is far from 37/123ms, so an
        // accidental `next_delay()` call cannot masquerade as the override.
        let mut backoff = Backoff::new(5000, 60000, 9);
        let report = run_plan(&addr, &one_shot_config(), &plan, &mut backoff, &mut clock);
        assert!(report.completed, "errors: {:?}", report.errors);
        assert_eq!(report.sheds, 2);
        assert_eq!(
            clock.0,
            vec![Duration::from_millis(37), Duration::from_millis(123)],
            "each sleep is exactly the server-supplied retry_after_ms"
        );
        assert_eq!(
            backoff.attempt(),
            0,
            "the exponential ramp never advanced: every delay was server-supplied"
        );
        server.join().expect("server thread");
    }

    /// The daemon sheds on arrival, so a `shed` for a later pipelined
    /// request can overtake the reply to an earlier one. It is still an
    /// overload rejection — counted, its retry-after honored — not a lost
    /// reply.
    #[test]
    fn a_shed_that_overtakes_an_earlier_reply_is_honored() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let answer = |writer: &mut std::net::TcpStream, line: &str| {
                writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush())
                    .expect("reply");
            };
            // Each connection: read `reads` lines, answering after each
            // with the scripted reply (if any), then wait for the client to
            // hang up.
            let scripts: [&[Option<&str>]; 2] = [
                // Seqs 0 and 1 arrive; seq 1 is shed before seq 0's reply.
                &[
                    None,
                    Some(r#"{"type":"error","code":"shed","retry_after_ms":41,"seq":1}"#),
                ],
                // Resume: seq 0 was applied; the resent seq 1 is acked.
                &[
                    Some(r#"{"type":"resumed","tenant":"t","last_seq":0}"#),
                    Some(r#"{"type":"ok","tenant":"t","seq":1}"#),
                ],
            ];
            for script in scripts {
                let (stream, _) = listener.accept().expect("accept");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut line = String::new();
                for reply in script {
                    line.clear();
                    reader.read_line(&mut line).expect("request");
                    if let Some(reply) = reply {
                        answer(&mut writer, reply);
                    }
                }
                while reader.read_line(&mut line).unwrap_or(0) > 0 {}
            }
        });
        let cfg = ClientConfig {
            tenant: "t".to_string(),
            window: 2,
            ..ClientConfig::default()
        };
        let mut clock = FakeClock(Vec::new());
        let mut backoff = Backoff::new(5000, 60000, 9);
        let report = run_plan(&addr, &cfg, &tick_plan(2), &mut backoff, &mut clock);
        assert!(report.completed, "errors: {:?}", report.errors);
        assert_eq!(report.sheds, 1, "the overtaking shed is counted");
        assert_eq!(
            clock.0,
            vec![Duration::from_millis(41)],
            "its hint is honored"
        );
        assert_eq!(backoff.attempt(), 0, "no lost-reply backoff");
        server.join().expect("server thread");
    }

    #[test]
    fn seq_chain_stays_exactly_once_across_a_shed_retry_cycle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = scripted_server(
            listener,
            vec![
                // Conn 1: apply seq 0, shed seq 1 and drop the connection
                // (the script ends, modeling a journaled shed disconnect).
                vec![
                    r#"{"type":"ok","tenant":"t","seq":0}"#,
                    r#"{"type":"error","code":"shed","retry_after_ms":5,"seq":1}"#,
                ],
                // Conn 2: resume reports last_seq 0; the tail resends.
                vec![
                    r#"{"type":"resumed","tenant":"t","last_seq":0}"#,
                    r#"{"type":"ok","tenant":"t","seq":1}"#,
                    r#"{"type":"ok","tenant":"t","seq":2}"#,
                ],
            ],
        );
        let plan = tick_plan(3);
        let mut clock = FakeClock(Vec::new());
        let mut backoff = Backoff::new(5000, 60000, 9);
        let report = run_plan(&addr, &one_shot_config(), &plan, &mut backoff, &mut clock);
        assert!(report.completed, "errors: {:?}", report.errors);
        assert_eq!(report.sheds, 1);
        assert_eq!(clock.0, vec![Duration::from_millis(5)]);

        let received = server.join().expect("server thread");
        let seqs_of = |lines: &[String]| -> Vec<Option<u64>> {
            lines
                .iter()
                .map(|l| {
                    Json::parse(l)
                        .ok()
                        .and_then(|v| v.get("seq").and_then(Json::as_u64))
                })
                .collect()
        };
        // Conn 1 saw seqs 0 and 1; the shed did not advance the chain.
        assert_eq!(seqs_of(&received[0]), vec![Some(0), Some(1)]);
        // Conn 2: the resume handshake (unsequenced), then the resend
        // starting *exactly* at the shed seq — 0 is never re-applied, 1 is
        // sent exactly once more, and nothing skips ahead.
        assert_eq!(seqs_of(&received[1]), vec![None, Some(1), Some(2)]);
        assert!(received[1][0].contains(r#""type":"resume""#));
    }

    #[test]
    fn fake_clock_collects_the_whole_schedule_without_sleeping() {
        let mut clock = FakeClock(Vec::new());
        let mut backoff = Backoff::new(5, 100, 1);
        for _ in 0..4 {
            let d = backoff.next_delay();
            clock.sleep(d);
        }
        assert_eq!(clock.0.len(), 4);
        assert!(clock.0.iter().all(|d| d.as_millis() <= 100));
    }
}
