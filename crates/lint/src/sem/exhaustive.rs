//! L9 `journal-exhaustiveness`: the crash-recovery path must keep up with
//! the data model. Three structural checks:
//!
//! * Every `JournalRecord` variant is matched (as `JournalRecord::V`) in
//!   the replay path — `apply_record` or `replay_with_report` — so a new
//!   record kind cannot be written but silently skipped (or crash) on
//!   recovery.
//! * Every `CheckpointState` field's wire key appears in both its one
//!   writer (`write_fields`, shared by journal records and `evicted`
//!   replies) and its parser (`from_json`).
//! * Every field of the engine snapshot structs (defined cross-crate in
//!   `online/src/engine.rs`) likewise appears in its writer and parser:
//!   `EngineSnapshot` in `write_engine`/`engine_from_json`, and the nested
//!   `IntervalSnapshot` and `MachineSnapshot` in `write_interval`/
//!   `interval_from_json` and `write_machine`/`machine_from_json`.
//!
//! Field presence is a quoted-key containment check: the function must
//! contain a string literal equal to the wire key or containing
//! `"key"` (quotes included) — which matches both a parser's plain
//! `"cal_len"` and a writer's escaped fragments like `"{\"cal_len\":"`
//! after the lexer's unquoting. A handful of fields serialize under
//! different wire keys (`config` flattens; `cost` writes `total_cost`);
//! the mapping below is the authoritative translation.

use crate::index::FileIndex;
use crate::lexer::TokenKind;
use crate::rules::{Finding, RuleId};

use super::SemContext;

/// Functions forming the journal replay path.
const REPLAY_FNS: [&str; 2] = ["apply_record", "replay_with_report"];

/// Engine snapshot structs and their protocol.rs writer and parser.
const ENGINE_ROUND_TRIPS: [(&str, [&str; 2]); 3] = [
    ("EngineSnapshot", ["write_engine", "engine_from_json"]),
    ("IntervalSnapshot", ["write_interval", "interval_from_json"]),
    ("MachineSnapshot", ["write_machine", "machine_from_json"]),
];

/// Wire keys a `CheckpointState` field serializes under. `config` is
/// flattened into the tenant-config scalars; `cost` is written as
/// `total_cost` (the wire name predates the field rename).
fn checkpoint_wire_keys(field: &str) -> Vec<&str> {
    match field {
        "config" => vec!["machines", "cal_len", "cal_cost", "algorithm"],
        "cost" => vec!["total_cost"],
        _ => vec![field],
    }
}

/// Does fn `name` (optionally `owner`-scoped) in `idx` contain a string
/// literal carrying the quoted wire key?
fn body_has_key(idx: &FileIndex<'_>, name: &str, owner: Option<&str>, key: &str) -> Option<bool> {
    let item = idx.fn_named(name, owner)?;
    let quoted = format!("\"{key}\"");
    for i in item.body.0..=item.body.1 {
        let t = &idx.tokens[i];
        if t.kind != TokenKind::Str {
            continue;
        }
        let value = crate::index::unquote(t.text);
        if value == key || value.contains(&quoted) {
            return Some(true);
        }
    }
    Some(false)
}

/// Checks one struct's fields against its writer and parser functions
/// living in `fns_in`, reporting findings anchored at the field
/// definitions.
fn check_struct_round_trip(
    struct_idx: &FileIndex<'_>,
    struct_name: &str,
    fns_in: &FileIndex<'_>,
    fns: &[(&str, Option<&str>)],
    wire_keys: fn(&str) -> Vec<&str>,
    findings: &mut Vec<Finding>,
) {
    let Some(st) = struct_idx.structs.iter().find(|s| s.name == struct_name) else {
        return;
    };
    for (fn_name, owner) in fns {
        if fns_in.fn_named(fn_name, *owner).is_none() {
            findings.push(Finding {
                rule: RuleId::JournalExhaustiveness,
                file: fns_in.file.rel.clone(),
                line: 1,
                message: format!(
                    "`{struct_name}` writer/parser `{fn_name}` not found — the \
                     exhaustiveness check has nothing to verify against"
                ),
            });
            return;
        }
    }
    for (field, line) in &st.fields {
        for key in wire_keys(field) {
            for (fn_name, owner) in fns {
                if body_has_key(fns_in, fn_name, *owner, key) == Some(false) {
                    findings.push(Finding {
                        rule: RuleId::JournalExhaustiveness,
                        file: struct_idx.file.rel.clone(),
                        line: *line,
                        message: format!(
                            "`{struct_name}.{field}` (wire key `{key}`) does not appear in \
                             `{fn_name}` — snapshot and restore have drifted"
                        ),
                    });
                }
            }
        }
    }
}

pub fn check(ctx: &SemContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();

    // JournalRecord variants vs the replay path.
    if let Some(journal) = ctx.index_of("crates/serve/src/journal.rs") {
        if let Some(en) = journal.enums.iter().find(|e| e.name == "JournalRecord") {
            let bodies: Vec<(usize, usize)> = journal
                .fns
                .iter()
                .filter(|f| REPLAY_FNS.contains(&f.name.as_str()))
                .map(|f| f.body)
                .collect();
            if bodies.is_empty() {
                findings.push(Finding {
                    rule: RuleId::JournalExhaustiveness,
                    file: journal.file.rel.clone(),
                    line: en.line,
                    message: format!(
                        "`JournalRecord` exists but no replay function ({}) was found",
                        REPLAY_FNS.join("/")
                    ),
                });
            }
            for (variant, line) in &en.variants {
                let matched = bodies.iter().any(|&body| {
                    let code: Vec<usize> = journal.code_in(body).collect();
                    code.windows(3).any(|w| {
                        journal.tokens[w[0]].text == "JournalRecord"
                            && journal.tokens[w[1]].text == "::"
                            && journal.tokens[w[2]].text == variant
                    })
                });
                if !bodies.is_empty() && !matched {
                    findings.push(Finding {
                        rule: RuleId::JournalExhaustiveness,
                        file: journal.file.rel.clone(),
                        line: *line,
                        message: format!(
                            "journal record variant `{variant}` is not matched in the replay \
                             path ({}) — recovery would drop or crash on it",
                            REPLAY_FNS.join("/")
                        ),
                    });
                }
            }
        }
    }

    // CheckpointState and the engine snapshot round-trips through
    // protocol.rs.
    if let Some(protocol) = ctx.index_of("crates/serve/src/protocol.rs") {
        check_struct_round_trip(
            protocol,
            "CheckpointState",
            protocol,
            &[
                ("write_fields", Some("CheckpointState")),
                ("from_json", Some("CheckpointState")),
            ],
            checkpoint_wire_keys,
            &mut findings,
        );
        if let Some(engine) = ctx.index_of("crates/online/src/engine.rs") {
            for (struct_name, fns) in ENGINE_ROUND_TRIPS {
                check_struct_round_trip(
                    engine,
                    struct_name,
                    protocol,
                    &fns.map(|f| (f, None)),
                    |f| vec![f],
                    &mut findings,
                );
            }
        }
    }
    findings
}
