//! Hand-rolled JSON scalar helpers shared by every artifact emitter.
//!
//! The workspace is offline-vendored and all of its JSON documents are
//! flat dictionaries of labels and numbers, so a serializer dependency
//! would be pure weight. These helpers are the single source of truth
//! for how a string, a finite `f64`, or a duration is rendered; the
//! bench binaries (`bench::qor`) and the synthesis server (`serve`)
//! both build their documents out of them, so the two surfaces cannot
//! drift apart formatting-wise.

use crate::pipeline::CircuitResult;
use std::fmt::Write as _;
use std::time::Duration;

/// A JSON string literal (the labels emitted here are plain ASCII, but
/// quotes and backslashes are escaped for safety).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for a duration, in seconds.
pub fn json_seconds(d: Duration) -> String {
    json_f64(d.as_secs_f64())
}

/// A finite `f64` as a JSON number (exponent notation).
pub fn json_f64(x: f64) -> String {
    debug_assert!(x.is_finite(), "QoR metrics are finite");
    format!("{x:.6e}")
}

/// One job's QoR as JSON object members (no braces), for the Table-1
/// artifact and `synthd`'s per-job document; energy is per cycle at
/// `frequency_hz`. Choice-aware runs add the no-choice gate count and STA
/// delay, so both portfolio guarantees stay checkable from the artifact.
pub fn json_circuit_result(r: &CircuitResult, frequency_hz: f64) -> String {
    let mut delta = r
        .gates_no_choice
        .map(|g| format!(", \"gates_no_choice\": {g}"))
        .unwrap_or_default();
    if let Some(d) = r.delay_no_choice {
        let _ = write!(delta, ", \"delay_s_no_choice\": {}", json_f64(d.value()));
    }
    format!(
        "\"gates\": {}{delta}, \"delay_s\": {}, \"area_m2\": {}, \"pd_w\": {}, \"ps_w\": {}, \
         \"pt_w\": {}, \"energy_j\": {}, \"edp_js\": {}, \"transistors\": {}",
        r.gates,
        json_f64(r.delay.value()),
        json_f64(r.area),
        json_f64(r.power.dynamic.value()),
        json_f64(r.power.static_sub.value()),
        json_f64(r.total_power().value()),
        json_f64(r.total_power().value() / frequency_hz),
        json_f64(r.edp().value()),
        r.transistors,
    )
}

/// Writes an artifact to `path`, exiting with a message on I/O failure
/// (binary helper).
pub fn write_or_exit(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote QoR artifact to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }

    #[test]
    fn numbers_are_json_compatible() {
        assert_eq!(json_f64(0.0), "0.000000e0");
        assert_eq!(json_f64(1.5e-12), "1.500000e-12");
        // Exponent-notation numbers round-trip as numbers.
        assert_eq!(json_f64(6.02e23).parse::<f64>().unwrap(), 6.02e23);
    }

    #[test]
    fn durations_render_as_seconds() {
        assert_eq!(json_seconds(Duration::from_millis(1500)), "1.500000e0");
    }
}
