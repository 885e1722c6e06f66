//! Chrome trace-event JSON export and round-trip import.
//!
//! [`to_chrome`] renders a deterministic `traceEvents` document that
//! `chrome://tracing` / Perfetto load directly: complete spans
//! (`ph: "X"`) and instants (`ph: "i"`), timestamps in microseconds,
//! one display track per fleet member. The top-level `ts`/`dur`
//! microsecond fields are display-only; the *exact* modeled
//! nanosecond values ride in `args.ts_ns` / `args.dur_ns` (f64s print
//! via Rust's shortest round-trip `Display`, so text → parse → text
//! is lossless), which is what makes
//! `to_chrome(from_chrome(to_chrome(events)))` byte-identical to
//! `to_chrome(events)`.

use crate::trace::{Phase, TraceEvent};

/// Escape a string for a JSON literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Arg names [`to_chrome`] claims for the round-trip envelope; extra
/// event args must not reuse them (a duplicate JSON key would be
/// silently dropped on re-import).
pub(crate) const RESERVED_ARGS: [&str; 6] = ["who", "tick", "job", "step", "ts_ns", "dur_ns"];

/// Render events as a Chrome trace-event JSON document.
pub fn to_chrome(events: &[TraceEvent]) -> String {
    let mut lines = Vec::with_capacity(events.len());
    for e in events {
        let ph = match e.phase {
            Phase::Span => "X",
            Phase::Instant => "i",
        };
        let mut args = String::new();
        args.push_str(&format!("\"who\":\"{}\"", escape(&e.who)));
        args.push_str(&format!(
            ",\"tick\":{},\"job\":{},\"step\":{}",
            e.tick, e.job, e.step
        ));
        args.push_str(&format!(",\"ts_ns\":{},\"dur_ns\":{}", e.ts_ns, e.dur_ns));
        for (k, v) in &e.args {
            debug_assert!(
                !RESERVED_ARGS.contains(&k.as_str()),
                "extra trace arg {k:?} collides with a reserved envelope key"
            );
            args.push_str(&format!(",\"{}\":{}", escape(k), v));
        }
        let scope = if e.phase == Phase::Instant {
            ",\"s\":\"t\""
        } else {
            ""
        };
        lines.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\"{scope},\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
            escape(&e.name),
            escape(&e.cat),
            e.ts_ns / 1e3,
            e.dur_ns / 1e3,
            e.track,
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

fn as_f64(v: &serde_json::Value) -> Option<f64> {
    match v {
        serde_json::Value::UInt(u) => Some(*u as f64),
        serde_json::Value::Int(i) => Some(*i as f64),
        serde_json::Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn as_u64(v: &serde_json::Value) -> Option<u64> {
    match v {
        serde_json::Value::UInt(u) => Some(*u),
        serde_json::Value::Int(i) => u64::try_from(*i).ok(),
        serde_json::Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn get<'a>(obj: &'a [(String, serde_json::Value)], key: &str) -> Option<&'a serde_json::Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parse a document produced by [`to_chrome`] back into events.
///
/// The exact modeled timestamps are recovered from `args.ts_ns` /
/// `args.dur_ns`; remaining numeric args keep their document order.
///
/// # Errors
/// Returns a description of the first malformed construct.
pub fn from_chrome(text: &str) -> Result<Vec<TraceEvent>, String> {
    let doc: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("trace JSON parse error: {e}"))?;
    let top = doc.as_object().ok_or("trace document is not an object")?;
    let events = match get(top, "traceEvents") {
        Some(serde_json::Value::Array(a)) => a,
        _ => return Err("missing traceEvents array".into()),
    };
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_object()
            .ok_or(format!("event {i} is not an object"))?;
        let str_field = |key: &str| -> Result<String, String> {
            match get(obj, key) {
                Some(serde_json::Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("event {i}: missing string field {key}")),
            }
        };
        let phase = match str_field("ph")?.as_str() {
            "X" => Phase::Span,
            "i" => Phase::Instant,
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        };
        let track = get(obj, "tid")
            .and_then(as_u64)
            .ok_or(format!("event {i}: missing tid"))?;
        let args = match get(obj, "args") {
            Some(serde_json::Value::Object(o)) => o,
            _ => return Err(format!("event {i}: missing args object")),
        };
        let who = match get(args, "who") {
            Some(serde_json::Value::Str(s)) => s.clone(),
            _ => return Err(format!("event {i}: missing args.who")),
        };
        let key_u64 = |key: &str| -> Result<u64, String> {
            get(args, key)
                .and_then(as_u64)
                .ok_or(format!("event {i}: missing args.{key}"))
        };
        let key_f64 = |key: &str| -> Result<f64, String> {
            get(args, key)
                .and_then(as_f64)
                .ok_or(format!("event {i}: missing args.{key}"))
        };
        let extra: Vec<(String, f64)> = args
            .iter()
            .filter(|(k, _)| !RESERVED_ARGS.contains(&k.as_str()))
            .filter_map(|(k, v)| as_f64(v).map(|f| (k.clone(), f)))
            .collect();
        out.push(TraceEvent {
            phase,
            cat: str_field("cat")?,
            name: str_field("name")?,
            who,
            track,
            tick: key_u64("tick")?,
            job: key_u64("job")?,
            step: key_u64("step")?,
            ts_ns: key_f64("ts_ns")?,
            dur_ns: key_f64("dur_ns")?,
            args: extra,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                phase: Phase::Span,
                cat: "exec".into(),
                name: "and16".into(),
                who: "chip\"7\"".into(),
                track: 3,
                tick: 2,
                job: 1,
                step: 4,
                ts_ns: 40123.456789,
                dur_ns: 98.5,
                args: vec![("attempts".into(), 2.0), ("acts".into(), 51.0)],
            },
            TraceEvent {
                phase: Phase::Instant,
                cat: "fault".into(),
                name: "dropout".into(),
                who: "m3".into(),
                track: 4,
                tick: 2,
                job: 0,
                step: 50,
                ts_ns: 41000.0,
                dur_ns: 0.0,
                args: vec![("member", 3.0)]
                    .into_iter()
                    .map(|(k, v)| (k.into(), v))
                    .collect(),
            },
        ]
    }

    #[test]
    fn round_trip_is_lossless_and_byte_stable() {
        let events = sample();
        let text = to_chrome(&events);
        let back = from_chrome(&text).unwrap();
        assert_eq!(back, events, "structural round trip");
        assert_eq!(to_chrome(&back), text, "byte round trip");
    }

    #[test]
    fn document_shape_is_chrome_loadable() {
        let text = to_chrome(&sample());
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"i\",\"s\":\"t\""));
        // It must also be valid JSON by the shim's own parser.
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert!(v.as_object().is_some());
    }

    #[test]
    fn escaping_survives_quotes() {
        let text = to_chrome(&sample());
        assert!(text.contains("chip\\\"7\\\""));
        let back = from_chrome(&text).unwrap();
        assert_eq!(back[0].who, "chip\"7\"");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(from_chrome("[]").is_err());
        assert!(from_chrome("{\"traceEvents\":3}").is_err());
        assert!(from_chrome("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(from_chrome("not json").is_err());
    }
}
