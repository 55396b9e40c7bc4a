//! Machine-readable benchmark records: serialize figure [`Row`]s to a JSON
//! array (the `BENCH_*.json` artifacts) and parse/validate such files
//! against one [`RowSpec`] per artifact, without any external dependency.
//! The parser is a minimal but complete recursive-descent JSON reader —
//! enough to round-trip what [`rows_to_json`] emits and to reject truncated
//! or hand-mangled files in CI.

use std::collections::BTreeMap;

use crate::harness::{Outcome, Row};

/// Serialize rows as a JSON array, one object per line, with the same fields
/// as [`crate::harness::print_csv`].
pub fn rows_to_json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let outcome = match r.m.outcome {
            Outcome::Ok => "ok",
            Outcome::Oom => "oom",
            Outcome::Unsupported => "unsupported",
        };
        out.push_str(&format!(
            "  {{\"figure\": {}, \"series\": {}, \"x\": {}, \"outcome\": \"{outcome}\", \
             \"seconds\": {:.3}, \"jobs\": {}, \"shuffle_bytes\": {}, \"spill_bytes\": {}, \
             \"partitions_lost\": {}, \"recompute_ms\": {:.3}, \"checkpoint_bytes\": {}, \
             \"jobs_completed\": {}, \"jobs_cancelled\": {}, \"jobs_rejected\": {}, \
             \"queue_wait_ms\": {:.3}}}{}\n",
            quote(&r.figure),
            quote(&r.series),
            r.x,
            r.m.seconds,
            r.m.stats.jobs,
            r.m.stats.shuffle_bytes,
            r.m.stats.spill_bytes,
            r.m.stats.partitions_lost,
            r.m.stats.recompute_nanos as f64 / 1e6,
            r.m.stats.checkpoint_bytes,
            r.m.stats.jobs_completed,
            r.m.stats.jobs_cancelled,
            r.m.stats.jobs_rejected,
            r.m.stats.queue_wait_nanos as f64 / 1e6,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    out
}

fn quote(s: &str) -> String {
    let mut q = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c if (c as u32) < 0x20 => q.push_str(&format!("\\u{:04x}", c as u32)),
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// A parsed JSON value (only what benchmark records need).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as f64.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order normalized).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key` if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Errors carry the byte offset.
pub fn parse(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut p = Parser { b, at: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != b.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.b.len() && self.b[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.at).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.at)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.b[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.at += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.b[self.at..];
                    let ch_len = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8")?
                        .chars()
                        .next()
                        .map(char::len_utf8)
                        .unwrap_or(1);
                    s.push_str(std::str::from_utf8(&rest[..ch_len]).unwrap());
                    self.at += ch_len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] got {other:?} at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(map));
                }
                other => return Err(format!("expected , or }} got {other:?} at byte {}", self.at)),
            }
        }
    }
}

/// One row of an artifact as a [`RowSpec`] sees it, after the shared checks
/// (strings present, required numbers present) have passed.
pub struct RowView<'a> {
    /// The row's `series`.
    pub series: &'a str,
    row: &'a Json,
}

impl RowView<'_> {
    /// A numeric column (0 when the spec did not require it and it is absent).
    pub fn num(&self, key: &str) -> f64 {
        self.row.get(key).and_then(Json::as_num).unwrap_or(0.0)
    }
}

/// What one sweep's artifact must contain beyond the shape every artifact
/// shares (a non-empty array of objects with `figure`/`series` strings and a
/// finite non-negative `seconds`).
pub struct RowSpec {
    /// Numeric columns every row must carry.
    pub numeric: &'static [&'static str],
    /// What is wrong with a row that must not appear, if anything.
    pub bad_row: fn(&RowView) -> Option<String>,
    /// Coverage: each predicate must hold for some row, or validation fails
    /// with its message.
    pub needs: &'static [(fn(&RowView) -> bool, &'static str)],
}

/// `BENCH_recovery.json` (see `figures::recovery`): the recovery counters,
/// the fault-free `loss-0` baseline series, at least one lossy series, and
/// at least one row that actually lost partitions (otherwise the sweep
/// measured nothing).
pub const RECOVERY_ROWS: RowSpec = RowSpec {
    numeric: &["partitions_lost", "recompute_ms", "checkpoint_bytes"],
    bad_row: |r| {
        let lost = r.num("partitions_lost");
        (r.series == "loss-0" && lost > 0.0)
            .then(|| format!("loss-0 baseline lost {lost} partitions"))
    },
    needs: &[
        (|r| r.series == "loss-0", "missing the loss-0 baseline series"),
        (lossy, "missing a lossy series (loss-<permille> with permille > 0)"),
        (
            |r| lossy(r) && r.num("partitions_lost") > 0.0,
            "no row lost any partitions; the sweep measured nothing",
        ),
    ],
};

fn lossy(r: &RowView) -> bool {
    r.series != "loss-0" && r.series.starts_with("loss-")
}

/// `BENCH_service.json` (see `figures::service`): the multi-tenancy
/// counters, both scheduling policies (`fifo` and a `fair-*` series), at
/// least one row that completed jobs, one that queued (non-zero wait), and
/// one where admission control rejected work.
pub const SERVICE_ROWS: RowSpec = RowSpec {
    numeric: &["jobs_completed", "jobs_cancelled", "jobs_rejected", "queue_wait_ms"],
    bad_row: |r| {
        (r.num("jobs_completed") + r.num("jobs_cancelled") == 0.0)
            .then(|| "no job ran (completed + cancelled == 0)".to_string())
    },
    needs: &[
        (|r| r.series == "fifo", "missing the fifo and/or fair-share series"),
        (|r| r.series.starts_with("fair"), "missing the fifo and/or fair-share series"),
        (|r| r.num("jobs_completed") > 0.0, "no row completed any job"),
        (
            |r| r.num("queue_wait_ms") > 0.0,
            "no row had queue waits; the sweep never saturated the slots",
        ),
        (
            |r| r.num("jobs_rejected") > 0.0,
            "no row rejected any job; admission control was never exercised",
        ),
    ],
};

/// Validate an artifact against `spec`. Returns the row count.
pub fn validate_rows(src: &str, spec: &RowSpec) -> Result<usize, String> {
    let doc = parse(src)?;
    let rows = match &doc {
        Json::Arr(rows) if !rows.is_empty() => rows,
        Json::Arr(_) => return Err("empty benchmark array".into()),
        _ => return Err("top level is not a JSON array".into()),
    };
    let mut views = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let string = |key: &str| {
            row.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("row {i}: missing string \"{key}\""))
        };
        let number = |key: &str| {
            row.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("row {i}: missing numeric \"{key}\""))
        };
        let series = string("series")?;
        string("figure")?;
        let secs = number("seconds")?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(format!("row {i}: bad seconds {secs}"));
        }
        for key in spec.numeric {
            number(key)?;
        }
        let view = RowView { series, row };
        if let Some(what) = (spec.bad_row)(&view) {
            return Err(format!("row {i}: {what}"));
        }
        views.push(view);
    }
    match spec.needs.iter().find(|(holds, _)| !views.iter().any(holds)) {
        Some((_, missing)) => Err(missing.to_string()),
        None => Ok(rows.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Measurement;
    use matryoshka_engine::StatsSnapshot;

    fn recovery_row(series: &str, lost: u64, seconds: f64) -> Row {
        let stats = StatsSnapshot {
            partitions_lost: lost,
            recompute_nanos: lost * 1_000_000,
            ..Default::default()
        };
        Row {
            figure: "recovery/loss-x-checkpoint".into(),
            series: series.into(),
            x: 0,
            m: Measurement { outcome: Outcome::Ok, seconds, stats },
        }
    }

    #[test]
    fn rows_round_trip_and_validate() {
        let rows = vec![recovery_row("loss-0", 0, 12.5), recovery_row("loss-30", 4, 7.25)];
        let json = rows_to_json(&rows);
        assert_eq!(validate_rows(&json, &RECOVERY_ROWS).unwrap(), 2);
        let doc = parse(&json).unwrap();
        let Json::Arr(items) = &doc else { panic!("not an array") };
        assert_eq!(items[1].get("series").unwrap().as_str().unwrap(), "loss-30");
        assert_eq!(items[0].get("seconds").unwrap().as_num().unwrap(), 12.5);
    }

    #[test]
    fn validator_rejects_mangled_documents() {
        assert!(validate_rows("[", &RECOVERY_ROWS).is_err(), "truncated");
        assert!(validate_rows("{}", &RECOVERY_ROWS).is_err(), "not an array");
        assert_eq!(validate_rows("[]", &RECOVERY_ROWS).unwrap_err(), "empty benchmark array");
        let baseline = r#"{"figure": "f", "series": "loss-0", "seconds": 1.0,
            "partitions_lost": 0, "recompute_ms": 0.0, "checkpoint_bytes": 0}"#;
        assert!(
            validate_rows(&format!("[{baseline}]"), &RECOVERY_ROWS).is_err(),
            "lossy series missing"
        );
        let both = format!(
            r#"[{baseline},
            {{"figure": "f", "series": "loss-30", "seconds": 0.5,
              "partitions_lost": 4, "recompute_ms": 4.0, "checkpoint_bytes": 0}}]"#
        );
        assert_eq!(validate_rows(&both, &RECOVERY_ROWS).unwrap(), 2);
    }

    #[test]
    fn recovery_validator_checks_series_and_counters() {
        let lossy_row = |series: &str, lost: u64| recovery_row(series, lost, 1.0);
        let good = rows_to_json(&[lossy_row("loss-0", 0), lossy_row("loss-30", 4)]);
        assert_eq!(validate_rows(&good, &RECOVERY_ROWS).unwrap(), 2);
        // A service artifact is not a recovery artifact: right shape, wrong series.
        let service = rows_to_json(&[lossy_row("fifo", 0), lossy_row("fair-1:3", 0)]);
        assert!(validate_rows(&service, &RECOVERY_ROWS).is_err(), "missing loss series must fail");
        let no_losses = rows_to_json(&[lossy_row("loss-0", 0), lossy_row("loss-30", 0)]);
        assert_eq!(
            validate_rows(&no_losses, &RECOVERY_ROWS).unwrap_err(),
            "no row lost any partitions; the sweep measured nothing"
        );
        let lossy_baseline = rows_to_json(&[lossy_row("loss-0", 2), lossy_row("loss-30", 4)]);
        assert_eq!(
            validate_rows(&lossy_baseline, &RECOVERY_ROWS).unwrap_err(),
            "row 0: loss-0 baseline lost 2 partitions"
        );
        assert!(
            validate_rows(
                r#"[{"figure": "f", "series": "loss-0", "seconds": 1.0}]"#,
                &RECOVERY_ROWS
            )
            .is_err(),
            "recovery counters must be present"
        );
    }

    #[test]
    fn service_validator_checks_policies_and_counters() {
        let service_row = |series: &str, completed: u64, rejected: u64, wait_nanos: u64| {
            let stats = StatsSnapshot {
                jobs_completed: completed,
                jobs_rejected: rejected,
                queue_wait_nanos: wait_nanos,
                ..Default::default()
            };
            Row {
                figure: "service/offered-load".into(),
                series: series.into(),
                x: 20,
                m: Measurement { outcome: Outcome::Ok, seconds: 2.0, stats },
            }
        };
        let good = rows_to_json(&[
            service_row("fifo", 24, 8, 1_000_000),
            service_row("fair-1:3", 24, 8, 500_000),
        ]);
        assert_eq!(validate_rows(&good, &SERVICE_ROWS).unwrap(), 2);
        let one_policy = rows_to_json(&[service_row("fifo", 24, 8, 1_000_000)]);
        assert_eq!(
            validate_rows(&one_policy, &SERVICE_ROWS).unwrap_err(),
            "missing the fifo and/or fair-share series"
        );
        let never_saturated =
            rows_to_json(&[service_row("fifo", 24, 8, 0), service_row("fair-1:3", 24, 8, 0)]);
        assert!(validate_rows(&never_saturated, &SERVICE_ROWS).is_err(), "needs queue waits");
        let never_rejected =
            rows_to_json(&[service_row("fifo", 24, 0, 1), service_row("fair-1:3", 24, 0, 1)]);
        assert!(
            validate_rows(&never_rejected, &SERVICE_ROWS).is_err(),
            "needs admission rejections"
        );
        // A recovery artifact is not a service artifact.
        let recovery = rows_to_json(&[service_row("loss-0", 1, 1, 1)]);
        assert!(validate_rows(&recovery, &SERVICE_ROWS).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5e1, "x\"\nA"], "b": {"c": null, "d": true}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(-25.0), Json::Str("x\"\nA".into()),])
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert!(parse("[1, 2,,]").is_err());
        assert!(parse("[1] junk").is_err());
    }
}
