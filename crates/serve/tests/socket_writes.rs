//! Socket-write batching on the serving path. The daemon flushes worker
//! replies once per pipelined batch, and the router forwards and relays
//! once per drained read. These tests pin the two sides of that contract:
//! a client with one request in flight never finds its reply stranded in a
//! buffer (a stranded reply fails by read timeout, it does not hang), and
//! a batch the router cannot deliver still gets one typed reply per line.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use calib_core::json::Json;
use calib_router::{run_router, RouterConfig, RouterReport};
use calib_serve::{serve, ServeReport, ServerConfig};

/// How long a lock-step client waits for each reply.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Ticks in each lock-step session.
const TICKS: u64 = 6;

/// Starts an in-process daemon that exits once its last connection closes.
fn start_daemon() -> (String, JoinHandle<ServeReport>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let addr = listener.local_addr().expect("daemon addr").to_string();
    let config = ServerConfig {
        workers: 2,
        ..Default::default()
    };
    let daemon = std::thread::spawn(move || serve(listener, config).expect("daemon"));
    (addr, daemon)
}

/// Starts an in-process router over `shards` that exits once its last
/// client closes.
fn start_router(shards: Vec<String>, connect_attempts: u32) -> (String, JoinHandle<RouterReport>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let addr = listener.local_addr().expect("router addr").to_string();
    let config = RouterConfig {
        shards,
        control_timeout: Duration::from_secs(5),
        connect_attempts,
        backoff_base_ms: 1,
        backoff_cap_ms: 5,
        ..Default::default()
    };
    let router = std::thread::spawn(move || run_router(listener, config).expect("router"));
    (addr, router)
}

/// One client connection whose reads give up after [`READ_TIMEOUT`].
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            writer: stream,
            reader,
        }
    }

    /// Sends `lines` in a single socket write.
    fn send(&mut self, lines: &[String]) {
        let mut bytes = lines.join("\n");
        bytes.push('\n');
        self.writer.write_all(bytes.as_bytes()).expect("write");
    }

    fn read(&mut self) -> Json {
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => panic!("peer closed the connection"),
            Ok(_) => Json::parse(buf.trim()).expect("reply json"),
            Err(e) => panic!("no reply within {READ_TIMEOUT:?} (stranded in a buffer?): {e}"),
        }
    }

    /// One lock-step round trip: exactly one request in flight.
    fn ask(&mut self, line: String) -> Json {
        self.send(&[line]);
        self.read()
    }
}

fn kind(reply: &Json) -> &str {
    reply.get("type").and_then(Json::as_str).unwrap_or("")
}

fn seq(reply: &Json) -> Option<u64> {
    reply.get("seq").and_then(Json::as_u64)
}

fn hello(tenant: &str, seq: u64) -> String {
    format!(
        r#"{{"type":"hello","tenant":"{tenant}","machines":1,"cal_len":3,"cal_cost":2,"algorithm":"alg1","seq":{seq}}}"#
    )
}

fn arrive(tenant: &str, seq: u64) -> String {
    let jobs: Vec<String> = (0..TICKS)
        .map(|i| format!(r#"{{"id":{i},"release":{i},"weight":1}}"#))
        .collect();
    format!(
        r#"{{"type":"arrive","tenant":"{tenant}","jobs":[{}],"seq":{seq}}}"#,
        jobs.join(",")
    )
}

fn tick(tenant: &str, now: u64, seq: u64) -> String {
    format!(r#"{{"type":"tick","tenant":"{tenant}","now":{now},"seq":{seq}}}"#)
}

fn verb(verb: &str, tenant: &str, seq: u64) -> String {
    format!(r#"{{"type":"{verb}","tenant":"{tenant}","seq":{seq}}}"#)
}

/// One lock-step round trip whose reply must have type `ty` and echo
/// `seq_no`.
fn expect(client: &mut Client, line: String, ty: &str, seq_no: u64) -> Json {
    let reply = client.ask(line);
    assert_eq!(kind(&reply), ty, "{reply:?}");
    assert_eq!(seq(&reply), Some(seq_no), "{reply:?}");
    reply
}

/// `hello → arrive → tick×TICKS → drain` with one request in flight, each
/// reply checked for its type and `seq`. Returns the next unused `seq`;
/// the caller sends `bye`.
fn lockstep_session(client: &mut Client, tenant: &str) -> u64 {
    expect(client, hello(tenant, 0), "ok", 0);
    expect(client, arrive(tenant, 1), "ok", 1);
    for now in 0..TICKS {
        expect(client, tick(tenant, now, now + 2), "decisions", now + 2);
    }
    let drain_seq = TICKS + 2;
    let drained = expect(
        client,
        verb("drain", tenant, drain_seq),
        "drained",
        drain_seq,
    );
    assert_eq!(drained.get("checker_ok"), Some(&Json::Bool(true)));
    assert_eq!(drained.get("scheduled").and_then(Json::as_u64), Some(TICKS));
    drain_seq + 1
}

#[test]
fn a_lockstep_client_gets_every_reply_directly() {
    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(&addr);
    let bye_seq = lockstep_session(&mut client, "direct");
    expect(
        &mut client,
        verb("bye", "direct", bye_seq),
        "goodbye",
        bye_seq,
    );
    let metrics = client.ask(r#"{"type":"metrics"}"#.to_string());
    let reply_writes = metrics
        .get("global")
        .and_then(|g| g.get("reply_writes"))
        .and_then(Json::as_u64)
        .expect("reply_writes in the metrics reply");
    // One request in flight leaves nothing to batch: every reply before
    // this `metrics` one went out in a write of its own (the last of them
    // may still be on its way into the counter).
    let answered = bye_seq + 1;
    assert!(
        (answered - 1..=answered).contains(&reply_writes),
        "reply_writes {reply_writes} for {answered} lock-step replies"
    );
    drop(client);
    let report = daemon.join().expect("daemon thread");
    assert_eq!(report.accountings.len(), 1);
    assert!(report.all_ok(), "{:?}", report.accountings);
}

#[test]
fn a_lockstep_client_gets_every_reply_through_the_router() {
    let (daemon_addr, daemon) = start_daemon();
    let (router_addr, router) = start_router(vec![daemon_addr], 8);
    let mut client = Client::connect(&router_addr);
    let bye_seq = lockstep_session(&mut client, "routed");
    // The router answers `metrics` itself, after every earlier line is at
    // its shard. With one line in flight, each forward is a write of its
    // own.
    let metrics = client.ask(r#"{"type":"metrics"}"#.to_string());
    let counters = metrics.get("router").expect("router counters");
    let counter = |key: &str| counters.get(key).and_then(Json::as_u64);
    assert_eq!(counter("forwarded_requests"), Some(bye_seq));
    assert_eq!(counter("forward_writes"), Some(bye_seq));
    expect(
        &mut client,
        verb("bye", "routed", bye_seq),
        "goodbye",
        bye_seq,
    );
    drop(client);
    let report = router.join().expect("router thread");
    assert_eq!(report.forwarded_requests, bye_seq + 1);
    assert_eq!(report.shard_unreachable, 0);
    let report = daemon.join().expect("daemon thread");
    assert!(report.all_ok(), "{:?}", report.accountings);
}

#[test]
fn a_pipelined_burst_through_the_router_keeps_order_in_fewer_writes() {
    let (daemon_addr, daemon) = start_daemon();
    let (router_addr, router) = start_router(vec![daemon_addr], 8);
    let mut client = Client::connect(&router_addr);
    expect(&mut client, hello("burst", 0), "ok", 0);
    let mut burst = vec![arrive("burst", 1)];
    for now in 0..TICKS {
        burst.push(tick("burst", now, now + 2));
    }
    let drain_seq = TICKS + 2;
    burst.push(verb("drain", "burst", drain_seq));
    burst.push(verb("bye", "burst", drain_seq + 1));
    client.send(&burst);
    for expected in 1..=drain_seq + 1 {
        let reply = client.read();
        assert_eq!(seq(&reply), Some(expected), "{reply:?}");
    }
    let metrics = client.ask(r#"{"type":"metrics"}"#.to_string());
    let counters = metrics.get("router").expect("router counters");
    let forwarded = counters.get("forwarded_requests").and_then(Json::as_u64);
    let writes = counters.get("forward_writes").and_then(Json::as_u64);
    assert_eq!(forwarded, Some(drain_seq + 2));
    // The burst left the client in one write; the router forwards what
    // one read drained in one write, so it cannot need a write per line.
    assert!(
        writes.is_some_and(|w| w < drain_seq + 2),
        "forward_writes {writes:?} for {forwarded:?} lines"
    );
    drop(client);
    router.join().expect("router thread");
    let report = daemon.join().expect("daemon thread");
    assert!(report.all_ok(), "{:?}", report.accountings);
}

#[test]
fn a_pipelined_batch_to_a_dead_shard_gets_one_unreachable_reply_per_line() {
    // Port 1 on loopback refuses connections; one attempt keeps it fast.
    let (router_addr, router) = start_router(vec!["127.0.0.1:1".to_string()], 1);
    let lines = [
        ("a", 0, hello("a", 0)),
        ("b", 40, hello("b", 40)),
        ("a", 1, arrive("a", 1)),
        ("a", 2, tick("a", 0, 2)),
        ("b", 41, verb("drain", "b", 41)),
    ];
    let mut client = Client::connect(&router_addr);
    let batch: Vec<String> = lines.iter().map(|(_, _, line)| line.clone()).collect();
    client.send(&batch);
    for (tenant, seq_no, _) in &lines {
        let reply = client.read();
        assert_eq!(kind(&reply), "error", "{reply:?}");
        assert_eq!(
            reply.get("code").and_then(Json::as_str),
            Some("shard-unreachable")
        );
        assert_eq!(reply.get("tenant").and_then(Json::as_str), Some(*tenant));
        assert_eq!(seq(&reply), Some(*seq_no), "{reply:?}");
    }
    drop(client);
    let report = router.join().expect("router thread");
    assert_eq!(
        report.shard_unreachable,
        u64::try_from(lines.len()).expect("small")
    );
    assert_eq!(report.forwarded_requests, 0);
}
