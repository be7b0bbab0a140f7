//! Crash-safe fault journals and the `condor-faultlog` readers.
//!
//! Two on-disk forms share one schema:
//!
//! * **Dump** — a single JSON document written after the fact
//!   ([`crate::FaultHandle::log_json`]):
//!   `{"fired":[…],"schema":"condor-faultlog/2","seed":N}`.
//! * **Journal** — an append-only JSON-lines file written *while the
//!   faults fire* ([`crate::FaultPlan::install_with_journal`]): a header
//!   line `{"journal":true,"schema":"condor-faultlog/2","seed":N}`
//!   followed by one record per line, each flushed as it fires. A
//!   crashed or aborted run therefore leaves a readable prefix;
//!   [`parse_dump`] reports the torn tail via [`FaultDump::truncated`]
//!   instead of failing.
//!
//! [`crate::FaultPlan::from_records`] turns the parsed records back into
//! a plan that re-fires the identical `(site, call, action)` sequence —
//! the `condor faults replay` CLI subcommand is a thin wrapper over
//! that.

use crate::{FaultPlan, FaultRecord, FaultRule, Trigger};
use condor_cjson::Value;
use std::fmt;
use std::path::Path;

/// Schema tag of cjson dumps and journals.
pub const SCHEMA_V2: &str = "condor-faultlog/2";

/// A parsed fault dump or journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultDump {
    /// Schema version the document declared (always 2; the hand-rolled
    /// v1 form of earlier releases is refused).
    pub schema_version: u32,
    /// The plan seed the run used.
    pub seed: u64,
    /// Every fault that fired, in firing order (for a truncated journal:
    /// the readable prefix).
    pub records: Vec<FaultRecord>,
    /// True when the document was a journal whose final line was torn
    /// (the writer died mid-record); `records` holds the intact prefix.
    pub truncated: bool,
}

impl FaultDump {
    /// Rebuilds the replay plan for this dump's fired sequence.
    pub fn replay_plan(&self) -> FaultPlan {
        FaultPlan::from_records(self.seed, &self.records)
    }
}

/// Why a dump or journal failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault journal error: {}", self.message)
    }
}

impl std::error::Error for JournalError {}

fn journal_error(message: impl Into<String>) -> JournalError {
    JournalError {
        message: message.into(),
    }
}

/// One fired-fault record as a cjson node.
pub(crate) fn record_value(r: &FaultRecord) -> Value {
    Value::object([
        ("site".to_string(), Value::str(r.site.clone())),
        ("call".to_string(), Value::int(r.call as i64)),
        ("rule".to_string(), Value::int(r.rule as i64)),
        ("action".to_string(), Value::str(r.action)),
        ("arg".to_string(), Value::int(r.arg as i64)),
    ])
}

/// The whole-log dump document (`condor-faultlog/2`).
pub(crate) fn dump_value(seed: u64, records: &[FaultRecord]) -> Value {
    Value::object([
        ("schema".to_string(), Value::str(SCHEMA_V2)),
        ("seed".to_string(), Value::int(seed as i64)),
        (
            "fired".to_string(),
            Value::Array(records.iter().map(record_value).collect()),
        ),
    ])
}

/// The journal header line for a run under `seed`.
pub(crate) fn journal_header(seed: u64) -> String {
    condor_cjson::to_string(&Value::object([
        ("schema".to_string(), Value::str(SCHEMA_V2)),
        ("seed".to_string(), Value::int(seed as i64)),
        ("journal".to_string(), Value::Bool(true)),
    ]))
}

/// One journal line for a fired record.
pub(crate) fn record_line(r: &FaultRecord) -> String {
    condor_cjson::to_string(&record_value(r))
}

/// Interns an action string from a document into the `&'static str`
/// vocabulary [`FaultRecord`] uses.
fn action_static(s: &str) -> Result<&'static str, JournalError> {
    match s {
        "fail-transient" => Ok("fail-transient"),
        "fail-permanent" => Ok("fail-permanent"),
        "delay" => Ok("delay"),
        "abort" => Ok("abort"),
        "slowdown" => Ok("slowdown"),
        "stall" => Ok("stall"),
        "jitter" => Ok("jitter"),
        other => Err(journal_error(format!("unknown fault action {other:?}"))),
    }
}

fn u64_field(v: &Value, key: &str) -> Result<u64, JournalError> {
    v.get(key)
        .ok_or_else(|| journal_error(format!("missing field {key:?}")))?
        .as_i64()
        .filter(|&x| x >= 0)
        .map(|x| x as u64)
        .ok_or_else(|| journal_error(format!("field {key:?} is not a non-negative integer")))
}

fn record_from_value(v: &Value) -> Result<FaultRecord, JournalError> {
    let site = v
        .get("site")
        .and_then(Value::as_str)
        .ok_or_else(|| journal_error("record missing string field \"site\""))?
        .to_string();
    let action = action_static(
        v.get("action")
            .and_then(Value::as_str)
            .ok_or_else(|| journal_error("record missing string field \"action\""))?,
    )?;
    Ok(FaultRecord {
        site,
        call: u64_field(v, "call")?,
        rule: u64_field(v, "rule")? as usize,
        action,
        arg: u64_field(v, "arg")?,
    })
}

fn schema_version(v: &Value) -> Result<u32, JournalError> {
    match v.get("schema").and_then(Value::as_str) {
        Some(s) if s == SCHEMA_V2 => Ok(2),
        Some(other) => Err(journal_error(format!("unknown schema {other:?}"))),
        None => Err(journal_error("missing \"schema\" field")),
    }
}

fn parse_document(v: &Value) -> Result<FaultDump, JournalError> {
    let schema_version = schema_version(v)?;
    let seed = u64_field(v, "seed")?;
    // A header-only journal (no faults fired before the run ended)
    // parses as a complete single document.
    if v.get("journal").and_then(Value::as_bool) == Some(true) {
        return Ok(FaultDump {
            schema_version,
            seed,
            records: Vec::new(),
            truncated: false,
        });
    }
    let fired = v
        .get("fired")
        .and_then(Value::as_array)
        .ok_or_else(|| journal_error("dump missing \"fired\" array"))?;
    let records = fired
        .iter()
        .map(record_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FaultDump {
        schema_version,
        seed,
        records,
        truncated: false,
    })
}

/// Parses a fault dump (single document) or an append-only journal
/// (JSON lines). A journal whose final line is torn parses
/// to its intact prefix with [`FaultDump::truncated`] set.
pub fn parse_dump(text: &str) -> Result<FaultDump, JournalError> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err(journal_error("empty document"));
    }
    // Whole-document form first: a dump, or a header-only journal.
    if let Ok(v) = condor_cjson::parse(trimmed) {
        return parse_document(&v);
    }
    // Journal form: header line, then one record per line; stop at the
    // first torn line.
    let mut lines = trimmed.lines();
    let header_line = lines.next().ok_or_else(|| journal_error("empty journal"))?;
    let header = condor_cjson::parse(header_line)
        .map_err(|e| journal_error(format!("bad journal header: {e}")))?;
    if header.get("journal").and_then(Value::as_bool) != Some(true) {
        return Err(journal_error(
            "not a fault journal (header missing \"journal\":true)",
        ));
    }
    let schema_version = schema_version(&header)?;
    let seed = u64_field(&header, "seed")?;
    let mut records = Vec::new();
    let mut truncated = false;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = condor_cjson::parse(line)
            .ok()
            .and_then(|v| record_from_value(&v).ok());
        match parsed {
            Some(r) => records.push(r),
            None => {
                // The writer died mid-line; everything before is intact.
                truncated = true;
                break;
            }
        }
    }
    Ok(FaultDump {
        schema_version,
        seed,
        records,
        truncated,
    })
}

/// Reads and parses a dump or journal file.
pub fn read_dump(path: impl AsRef<Path>) -> Result<FaultDump, JournalError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| journal_error(format!("cannot read {}: {e}", path.display())))?;
    parse_dump(&text)
}

/// Serialises a plan (seed + rules) as a cjson document — the output of
/// `condor faults replay --json`.
pub fn plan_value(plan: &FaultPlan) -> Value {
    let rules = plan
        .rules
        .iter()
        .map(|r| {
            let mut fields = vec![("site".to_string(), Value::str(r.site.clone()))];
            let (trigger, trigger_arg) = match r.trigger {
                Trigger::Always => ("always", None),
                Trigger::NthCall(n) => ("nth-call", Some(Value::int(n as i64))),
                Trigger::FirstCalls(n) => ("first-calls", Some(Value::int(n as i64))),
                Trigger::AfterCalls(n) => ("after-calls", Some(Value::int(n as i64))),
                Trigger::Probability(p) => ("probability", Some(Value::float(p))),
            };
            fields.push(("trigger".to_string(), Value::str(trigger)));
            if let Some(arg) = trigger_arg {
                fields.push(("trigger_arg".to_string(), arg));
            }
            fields.push(("action".to_string(), Value::str(r.action.kind_str())));
            fields.push(("action_arg".to_string(), Value::int(r.action.arg() as i64)));
            if let Some(max) = r.max_fires {
                fields.push(("max_fires".to_string(), Value::int(max as i64)));
            }
            Value::object(fields)
        })
        .collect();
    Value::object([
        ("schema".to_string(), Value::str("condor-faultplan/1")),
        ("seed".to_string(), Value::int(plan.seed as i64)),
        ("rules".to_string(), Value::Array(rules)),
    ])
}

/// Formats one rule for the human-readable replay listing.
pub fn rule_summary(rule: &FaultRule) -> String {
    let trigger = match rule.trigger {
        Trigger::Always => "always".to_string(),
        Trigger::NthCall(n) => format!("call {n}"),
        Trigger::FirstCalls(n) => format!("calls <{n}"),
        Trigger::AfterCalls(n) => format!("calls >={n}"),
        Trigger::Probability(p) => format!("p={p:.3}"),
    };
    let arg = rule.action.arg();
    let action = if arg == 0 {
        rule.action.kind_str().to_string()
    } else {
        format!("{}({arg})", rule.action.kind_str())
    };
    match rule.max_fires {
        Some(max) => format!("{} @ {trigger} -> {action} (max {max})", rule.site),
        None => format!("{} @ {trigger} -> {action}", rule.site),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::FaultRule;
    use std::time::Duration;

    fn fired_records(seed: u64) -> (u64, Vec<FaultRecord>) {
        let h = FaultPlan::new(seed)
            .rule(FaultRule::at("s3.").nth_call(1).fail_transient())
            .rule(
                FaultRule::at("f1.")
                    .nth_call(0)
                    .delay(Duration::from_micros(250)),
            )
            .install();
        for _ in 0..3 {
            let _ = h.gate("s3.put_object");
            let _ = h.gate("f1.load_afi");
        }
        (seed, h.log())
    }

    #[test]
    fn v2_dump_round_trips() {
        let (seed, records) = fired_records(77);
        let text = condor_cjson::to_string(&dump_value(seed, &records));
        let dump = parse_dump(&text).unwrap();
        assert_eq!(dump.schema_version, 2);
        assert_eq!(dump.seed, seed);
        assert_eq!(dump.records, records);
        assert!(!dump.truncated);
    }

    #[test]
    fn v1_dump_is_refused() {
        let text = r#"{"schema":"condor-faultlog/1","seed":9,"fired":[
            {"site":"x.y","call":0,"rule":0,"action":"fail-transient"}]}"#;
        let err = parse_dump(text).unwrap_err();
        assert!(err.message.contains("unknown schema"), "{err}");
    }

    #[test]
    fn journal_writes_flush_per_fire_and_parse_back() {
        let dir = std::env::temp_dir().join("condor-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("flush-{}.journal", std::process::id()));
        let h = FaultPlan::new(5)
            .rule(FaultRule::at("a.").first_calls(2).fail_transient())
            .install_with_journal(&path)
            .unwrap();
        // Header alone is already a parseable (empty) journal.
        let dump = read_dump(&path).unwrap();
        assert_eq!(dump.seed, 5);
        assert!(dump.records.is_empty());
        // Each fire lands on disk immediately, no shutdown needed.
        let _ = h.gate("a.x");
        let dump = read_dump(&path).unwrap();
        assert_eq!(dump.records.len(), 1);
        let _ = h.gate("a.x");
        let dump = read_dump(&path).unwrap();
        assert_eq!(dump.records.len(), 2);
        assert_eq!(dump.records, h.log());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_journal_tail_parses_to_the_prefix() {
        let (seed, records) = fired_records(3);
        let mut text = journal_header(seed);
        for r in &records {
            text.push('\n');
            text.push_str(&record_line(r));
        }
        // Simulate a crash mid-write: cut the final line in half.
        let cut = text.len() - 17;
        let torn = &text[..cut];
        let dump = parse_dump(torn).unwrap();
        assert!(dump.truncated);
        assert_eq!(dump.records, records[..records.len() - 1]);
        assert_eq!(dump.seed, seed);
    }

    #[test]
    fn replayed_plan_fires_the_identical_sequence() {
        // Original run: probabilistic + windowed rules over two sites.
        let plan = FaultPlan::new(41)
            .rule(FaultRule::at("s3.").probability(0.5).fail_transient())
            .rule(
                FaultRule::at("f1.")
                    .after_calls(2)
                    .fail_permanent()
                    .max_fires(2),
            );
        let h = plan.install();
        for _ in 0..6 {
            let _ = h.gate("s3.put_object");
            let _ = h.gate("f1.load_afi");
        }
        let original = h.log();
        assert!(!original.is_empty());

        // Replay through the dump → plan → re-run path.
        let dump = parse_dump(&h.log_json()).unwrap();
        let replay = dump.replay_plan().install();
        for _ in 0..6 {
            let _ = replay.gate("s3.put_object");
            let _ = replay.gate("f1.load_afi");
        }
        let replayed = replay.log();
        let key = |r: &FaultRecord| (r.site.clone(), r.call, r.action, r.arg);
        assert_eq!(
            original.iter().map(key).collect::<Vec<_>>(),
            replayed.iter().map(key).collect::<Vec<_>>(),
            "replay must fire the identical (site, call, action) sequence"
        );
    }

    #[test]
    fn garbage_is_rejected_with_a_typed_error() {
        assert!(parse_dump("").is_err());
        assert!(parse_dump("not json").is_err());
        assert!(parse_dump("{\"schema\":\"wrong/9\",\"seed\":0,\"fired\":[]}").is_err());
        // A valid JSON object that is neither dump nor journal.
        assert!(parse_dump("{\"seed\":0}").is_err());
    }

    #[test]
    fn plan_value_serialises_every_trigger() {
        let plan = FaultPlan::new(1)
            .rule(FaultRule::at("a").always().abort())
            .rule(
                FaultRule::at("b")
                    .nth_call(3)
                    .delay(Duration::from_micros(9)),
            )
            .rule(FaultRule::at("c").first_calls(2).slowdown(1.5))
            .rule(FaultRule::at("d").after_calls(4).stall_cycles(7))
            .rule(
                FaultRule::at("e")
                    .probability(0.25)
                    .jitter_cycles(64)
                    .max_fires(1),
            );
        let v = plan_value(&plan);
        let text = condor_cjson::to_string_pretty(&v);
        for needle in [
            "always",
            "nth-call",
            "first-calls",
            "after-calls",
            "probability",
            "slowdown",
            "stall",
            "jitter",
            "max_fires",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
