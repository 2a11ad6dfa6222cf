//! Checkpoint format compatibility: read old, write new.
//!
//! `fixtures/v1-fixture.journal.jsonl` is a journal written by the v1
//! encoder, whose engine object stored every calibration three times: in
//! `intervals`, in `calibrations`, and as a `(time, label)` pair in `trace`.
//! It holds a hello, arrivals and ticks, one mid-run checkpoint, and a
//! tail of arrivals and ticks. Recovery must still start from that
//! checkpoint, and the recovered session must finish exactly like one
//! that never crashed. A v1 checkpoint whose parallel arrays disagree with
//! its intervals is refused, and recovery falls back past it.

use std::path::{Path, PathBuf};

use calib_core::json::{Json, ToJson};
use calib_serve::journal::journal_path;
use calib_serve::{
    read_journal, recover_with_report, CheckpointState, FsyncPolicy, JournalRecord, Request,
    TenantConfig, TenantSession,
};

const TENANT: &str = "v1-fixture";

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-fixture.journal.jsonl")
}

fn fixture_lines() -> Vec<String> {
    std::fs::read_to_string(fixture_path())
        .expect("read fixture")
        .lines()
        .map(str::to_string)
        .collect()
}

/// A unique, self-cleaning scratch directory holding one journal.
struct TempJournal(PathBuf);

impl TempJournal {
    fn new(tag: &str, lines: &[String]) -> TempJournal {
        let dir =
            std::env::temp_dir().join(format!("calib-checkpoint-v1-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let mut body = lines.join("\n");
        body.push('\n');
        std::fs::write(journal_path(&dir, TENANT), body).expect("write journal");
        TempJournal(dir)
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The fixture's requests run through a session that never crashed.
fn uninterrupted(records: &[JournalRecord]) -> TenantSession {
    let Some(JournalRecord::Hello {
        machines,
        cal_len,
        cal_cost,
        algorithm,
        ..
    }) = records.first()
    else {
        panic!("fixture opens with a hello");
    };
    let config = TenantConfig {
        machines: *machines,
        cal_len: *cal_len,
        cal_cost: *cal_cost,
        algorithm: *algorithm,
    };
    let mut session = TenantSession::new(TENANT, config, None).expect("session");
    for record in &records[1..] {
        match record {
            JournalRecord::Arrive { jobs, seq } => {
                session.arrive(jobs, *seq).expect("arrive");
            }
            JournalRecord::Tick { now, seq } => {
                session.tick(*now, *seq).expect("tick");
            }
            JournalRecord::Drain { seq } => {
                session.drain(*seq).expect("drain");
            }
            JournalRecord::Hello { .. } | JournalRecord::Checkpoint(_) => {}
        }
        if let Some(s) = record.seq() {
            session.note_seq(s);
        }
    }
    session
}

/// Drains `recovered` and `reference` and asserts they end identical:
/// schedule bytes, exact `u128` accounting, checker-clean, same `seq`.
fn assert_same_finish(mut recovered: TenantSession, mut reference: TenantSession) {
    recovered.drain(None).expect("recovered drain");
    reference.drain(None).expect("reference drain");
    assert_eq!(
        recovered.schedule_snapshot().to_json().to_string_compact(),
        reference.schedule_snapshot().to_json().to_string_compact(),
        "schedule bytes"
    );
    let (got, want) = (recovered.accounting(), reference.accounting());
    assert!(got.checker_ok, "violations: {:?}", got.violations);
    assert!(want.checker_ok, "violations: {:?}", want.violations);
    assert_eq!((got.flow, got.cost), (want.flow, want.cost));
    assert_eq!(got.scheduled, want.scheduled);
    assert_eq!(recovered.last_seq(), reference.last_seq());
}

#[test]
fn v1_fixture_recovers_from_its_checkpoint_and_replays_only_the_tail() {
    let records = read_journal(&fixture_path()).expect("read fixture");
    let ci = records
        .iter()
        .position(|r| matches!(r, JournalRecord::Checkpoint(_)))
        .expect("fixture holds a checkpoint");
    assert!(ci > 0 && ci + 1 < records.len(), "checkpoint sits mid-run");
    let JournalRecord::Checkpoint(state) = &records[ci] else {
        unreachable!();
    };
    // The v1 `trace` labels land on their intervals.
    let labels: Vec<&str> = state
        .engine
        .intervals
        .iter()
        .map(|iv| iv.reason.as_str())
        .collect();
    assert_eq!(
        labels,
        ["alg3:flow>=G", "alg3:queue>=G/T", "alg3:queue>=G/T"]
    );

    let journal = TempJournal::new("recover", &fixture_lines());
    let (recovered, report) = recover_with_report(&journal.0, TENANT, FsyncPolicy::Off)
        .expect("recover")
        .expect("journal present");
    assert!(
        report.from_checkpoint,
        "recovery starts from the checkpoint"
    );
    assert_eq!(report.records, records.len());
    assert_eq!(report.tail_replayed, records.len() - ci - 1);

    // Written back, the checkpoint is in the new format: no parallel
    // arrays under `engine`, and each interval carries its own label.
    let rewritten = Json::parse(&recovered.checkpoint_state().to_json_string()).expect("parses");
    let engine = rewritten.get("engine").expect("engine object");
    assert!(engine.get("calibrations").is_none());
    assert!(engine.get("trace").is_none());
    let first = &engine
        .get("intervals")
        .and_then(Json::as_arr)
        .expect("intervals")[0];
    assert_eq!(
        first.get("reason").and_then(Json::as_str),
        Some("alg3:flow>=G")
    );

    assert_same_finish(recovered, uninterrupted(&records));
}

/// A v1 checkpoint whose `trace` or `calibrations` disagree with its
/// intervals, or whose optional `last_seq` or `now` is present but not an
/// integer, is refused as a corrupt snapshot, both when a shard adopts it
/// and when recovery meets it in a journal; recovery then falls back to
/// full replay from the hello and still converges.
#[test]
fn inconsistent_v1_checkpoint_is_refused_and_recovery_falls_back() {
    let lines = fixture_lines();
    let ci = lines
        .iter()
        .position(|l| l.starts_with(r#"{"op":"checkpoint""#))
        .expect("fixture holds a checkpoint");
    let corruptions = [
        // `trace` one entry shorter than `intervals`.
        (
            "short-trace",
            r#",[14,"alg3:queue>=G/T"]],"fuel""#,
            r#"],"fuel""#,
        ),
        // A calibration on the wrong machine.
        (
            "moved-calibration",
            r#"{"machine":0,"start":14}],"assignments""#,
            r#"{"machine":1,"start":14}],"assignments""#,
        ),
        // Optional fields may be absent, but not mistyped: a string
        // `last_seq` would restore with no duplicate-suppression mark.
        (
            "mistyped-last-seq",
            r#""last_seq":10,"#,
            r#""last_seq":"10","#,
        ),
        ("mistyped-now", r#""now":16}"#, r#""now":"16"}"#),
    ];
    for (tag, from, to) in corruptions {
        assert_eq!(lines[ci].matches(from).count(), 1, "{tag}: fixture shape");
        let mut corrupted = lines.clone();
        corrupted[ci] = lines[ci].replace(from, to);

        let payload = Json::parse(&corrupted[ci]).expect("still valid JSON");
        assert!(CheckpointState::from_json(&payload).is_err(), "{tag}");
        let adopt = Json::obj([
            ("type", "adopt".to_json()),
            ("tenant", TENANT.to_json()),
            ("state", payload),
        ]);
        let (code, _) = Request::from_json(&adopt).expect_err(tag);
        assert_eq!(code, "corrupt-snapshot", "{tag}");

        let journal = TempJournal::new(tag, &corrupted);
        let records = read_journal(&journal_path(&journal.0, TENANT)).expect("read");
        assert_eq!(records.len(), lines.len() - 1, "{tag}: checkpoint dropped");
        let (recovered, report) = recover_with_report(&journal.0, TENANT, FsyncPolicy::Off)
            .expect("recovery falls back, never errors")
            .expect("journal present");
        assert!(!report.from_checkpoint, "{tag}: full replay");
        assert_eq!(report.tail_replayed, records.len() - 1, "{tag}");
        assert_same_finish(recovered, uninterrupted(&records));
    }
}
