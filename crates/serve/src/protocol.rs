//! The `synthd` message vocabulary and its byte encoding.
//!
//! A frame's payload (see [`crate::wire`]) starts with a one-byte tag.
//! Requests: `1` = job submission carrying a [`JobSpec`], `2` = stats
//! query, `3` = orderly shutdown, `4` = metrics scrape. Responses: `1` =
//! [`Response::Ok`] (mapped netlist + QoR), `2` = [`Response::Busy`]
//! (admission control refused the job — queue full), `3` =
//! [`Response::Error`], `4` = [`Response::Timeout`], `5` =
//! [`Response::Stats`], `6` = [`Response::Metrics`] (Prometheus text).
//!
//! Encoding is hand-rolled little-endian: fixed-width scalars in
//! declaration order, then length-prefixed (`u32`) byte strings. No
//! serializer dependency — the workspace is offline-vendored and the
//! schema is a dozen fields.

use gate_lib::GateFamily;
use techmap::{Objective, Verify};

/// One synthesis-and-map job, as submitted over the wire.
///
/// The circuit travels as **binary AIGER** (`aiger` — see
/// [`aig::to_aiger_binary`]); everything else is knobs mirroring
/// [`ambipolar::pipeline::PipelineConfig`] plus the scheduling-only
/// `timeout_ms`. `name` is a client-chosen label echoed into the QoR
/// document; it does not influence the computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Target gate family.
    pub family: GateFamily,
    /// Mapping objective.
    pub objective: Objective,
    /// Cut width for the mapper (`2..=6`).
    pub cut_k: u8,
    /// Priority cuts stored per node (0 = mapper default).
    pub max_cuts: u8,
    /// Post-mapping verification.
    pub verify: Verify,
    /// Choice-aware mapping (synthesis collects structural choices).
    pub choices: bool,
    /// Random patterns for power estimation.
    pub patterns: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Per-request deadline measured from admission, milliseconds.
    /// `0` disables the deadline.
    pub timeout_ms: u64,
    /// Synthesis flow script (see [`aig::Flow`]).
    pub flow: String,
    /// Client-chosen circuit label, echoed in the QoR document.
    pub name: String,
    /// The circuit, binary AIGER.
    pub aiger: Vec<u8>,
}

/// A client→server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run one job.
    Job(JobSpec),
    /// Return the server's lifetime statistics as JSON.
    Stats,
    /// Stop accepting work and exit once in-flight jobs drain.
    Shutdown,
    /// Return the process metrics registry in the Prometheus text
    /// exposition format.
    Metrics,
}

/// A server→client message. Exactly one per request, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The job ran to completion.
    Ok {
        /// Server-assigned request id (monotonically increasing per
        /// accepted request) — correlates this response with the
        /// server-side root span and telemetry.
        request_id: u64,
        /// Structural Verilog of the kept netlist
        /// ([`techmap::to_structural_verilog`]).
        netlist_verilog: String,
        /// Deterministic QoR document — a pure function of the job
        /// spec, so resubmissions must produce identical bytes.
        qor_json: String,
        /// Telemetry for this request, split into a `"deterministic"`
        /// section (cache flag + engine counters — byte-stable across
        /// identical warm resubmissions) and a `"timing"` section
        /// (request id, wall clock, queue wait — never stable). Kept
        /// out of `qor_json` so determinism stays checkable.
        telemetry_json: String,
    },
    /// Admission control refused the job: the queue is full. The client
    /// may retry after a backoff.
    Busy,
    /// The job failed (parse error, mapping error, refuted
    /// verification, …).
    Error {
        /// Request id, `0` when the job failed before admission
        /// assigned one (validation of the frame itself).
        request_id: u64,
        /// Human-readable failure description.
        msg: String,
    },
    /// The job's deadline lapsed before it finished.
    Timeout {
        /// Server-assigned request id of the abandoned job.
        request_id: u64,
    },
    /// Lifetime server statistics, JSON.
    Stats {
        /// The document (see `Server` for the schema).
        json: String,
    },
    /// The metrics registry, Prometheus text exposition format.
    Metrics {
        /// The rendered metrics page (see `obs::render_prometheus`).
        text: String,
    },
}

/// Why a payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before the announced structure did.
    Truncated,
    /// An unknown tag or enum code.
    BadTag(&'static str, u8),
    /// A length-prefixed string was not UTF-8.
    BadUtf8(&'static str),
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "payload truncated"),
            ProtocolError::BadTag(what, code) => write!(f, "bad {what} code {code}"),
            ProtocolError::BadUtf8(what) => write!(f, "{what} is not UTF-8"),
            ProtocolError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for ProtocolError {}

// --- scalar codes ---------------------------------------------------------

fn family_code(f: GateFamily) -> u8 {
    GateFamily::ALL.iter().position(|&g| g == f).unwrap() as u8
}

fn family_from(code: u8) -> Result<GateFamily, ProtocolError> {
    GateFamily::ALL
        .get(code as usize)
        .copied()
        .ok_or(ProtocolError::BadTag("family", code))
}

fn objective_code(o: Objective) -> u8 {
    match o {
        Objective::Delay => 0,
        Objective::Area => 1,
        Objective::Energy => 2,
    }
}

fn objective_from(code: u8) -> Result<Objective, ProtocolError> {
    match code {
        0 => Ok(Objective::Delay),
        1 => Ok(Objective::Area),
        2 => Ok(Objective::Energy),
        c => Err(ProtocolError::BadTag("objective", c)),
    }
}

fn verify_code(v: Verify) -> u8 {
    match v {
        Verify::Off => 0,
        Verify::Sim => 1,
        Verify::Sat => 2,
    }
}

fn verify_from(code: u8) -> Result<Verify, ProtocolError> {
    match code {
        0 => Ok(Verify::Off),
        1 => Ok(Verify::Sim),
        2 => Ok(Verify::Sat),
        c => Err(ProtocolError::BadTag("verify", c)),
    }
}

// --- byte writer / reader -------------------------------------------------

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Truncated)?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(ProtocolError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ProtocolError> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().unwrap()) as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self, what: &'static str) -> Result<String, ProtocolError> {
        String::from_utf8(self.bytes()?).map_err(|_| ProtocolError::BadUtf8(what))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        let rest = self.buf.len() - self.pos;
        if rest == 0 {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes(rest))
        }
    }
}

// --- encode / decode ------------------------------------------------------

impl Request {
    /// Encodes the request as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Job(spec) => {
                let mut out = Vec::with_capacity(64 + spec.aiger.len());
                out.push(1);
                out.push(family_code(spec.family));
                out.push(objective_code(spec.objective));
                out.push(spec.cut_k);
                out.push(spec.max_cuts);
                out.push(verify_code(spec.verify));
                out.push(spec.choices as u8);
                put_u64(&mut out, spec.patterns);
                put_u64(&mut out, spec.seed);
                put_u64(&mut out, spec.timeout_ms);
                put_bytes(&mut out, spec.flow.as_bytes());
                put_bytes(&mut out, spec.name.as_bytes());
                put_bytes(&mut out, &spec.aiger);
                out
            }
            Request::Stats => vec![2],
            Request::Shutdown => vec![3],
            Request::Metrics => vec![4],
        }
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on truncation, unknown codes, non-UTF-8
    /// strings, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            1 => {
                let family = family_from(r.u8()?)?;
                let objective = objective_from(r.u8()?)?;
                let cut_k = r.u8()?;
                let max_cuts = r.u8()?;
                let verify = verify_from(r.u8()?)?;
                let choices = r.u8()? != 0;
                Request::Job(JobSpec {
                    family,
                    objective,
                    cut_k,
                    max_cuts,
                    verify,
                    choices,
                    patterns: r.u64()?,
                    seed: r.u64()?,
                    timeout_ms: r.u64()?,
                    flow: r.string("flow")?,
                    name: r.string("name")?,
                    aiger: r.bytes()?,
                })
            }
            2 => Request::Stats,
            3 => Request::Shutdown,
            4 => Request::Metrics,
            t => return Err(ProtocolError::BadTag("request", t)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Ok {
                request_id,
                netlist_verilog,
                qor_json,
                telemetry_json,
            } => {
                let mut out = Vec::with_capacity(
                    24 + netlist_verilog.len() + qor_json.len() + telemetry_json.len(),
                );
                out.push(1);
                put_u64(&mut out, *request_id);
                put_bytes(&mut out, netlist_verilog.as_bytes());
                put_bytes(&mut out, qor_json.as_bytes());
                put_bytes(&mut out, telemetry_json.as_bytes());
                out
            }
            Response::Busy => vec![2],
            Response::Error { request_id, msg } => {
                let mut out = Vec::with_capacity(16 + msg.len());
                out.push(3);
                put_u64(&mut out, *request_id);
                put_bytes(&mut out, msg.as_bytes());
                out
            }
            Response::Timeout { request_id } => {
                let mut out = Vec::with_capacity(9);
                out.push(4);
                put_u64(&mut out, *request_id);
                out
            }
            Response::Stats { json } => {
                let mut out = Vec::with_capacity(8 + json.len());
                out.push(5);
                put_bytes(&mut out, json.as_bytes());
                out
            }
            Response::Metrics { text } => {
                let mut out = Vec::with_capacity(8 + text.len());
                out.push(6);
                put_bytes(&mut out, text.as_bytes());
                out
            }
        }
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// As [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            1 => Response::Ok {
                request_id: r.u64()?,
                netlist_verilog: r.string("netlist")?,
                qor_json: r.string("qor_json")?,
                telemetry_json: r.string("telemetry_json")?,
            },
            2 => Response::Busy,
            3 => Response::Error {
                request_id: r.u64()?,
                msg: r.string("error message")?,
            },
            4 => Response::Timeout {
                request_id: r.u64()?,
            },
            5 => Response::Stats {
                json: r.string("stats json")?,
            },
            6 => Response::Metrics {
                text: r.string("metrics text")?,
            },
            t => return Err(ProtocolError::BadTag("response", t)),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn spec() -> JobSpec {
        JobSpec {
            family: GateFamily::Cmos,
            objective: Objective::Energy,
            cut_k: 5,
            max_cuts: 12,
            verify: Verify::Sat,
            choices: true,
            patterns: 640 * 1024,
            seed: 0xDA7E_2010,
            timeout_ms: 30_000,
            flow: "b; rw; rf".into(),
            name: "C1355".into(),
            aiger: vec![1, 2, 3, 250, 251],
        }
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Job(spec()),
            Request::Stats,
            Request::Shutdown,
            Request::Metrics,
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let all = [
            Response::Ok {
                request_id: 7,
                netlist_verilog: "module m; endmodule\n".into(),
                qor_json: "{\"gates\": 3}".into(),
                telemetry_json: "{\"timing\": {\"wall_ms\": 1.5}}".into(),
            },
            Response::Busy,
            Response::Error {
                request_id: 8,
                msg: "no".into(),
            },
            Response::Timeout { request_id: 9 },
            Response::Stats { json: "{}".into() },
            Response::Metrics {
                text: "# TYPE x counter\nx 1\n".into(),
            },
        ];
        for resp in all {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert_eq!(Request::decode(&[]), Err(ProtocolError::Truncated));
        assert_eq!(
            Request::decode(&[9]),
            Err(ProtocolError::BadTag("request", 9))
        );
        assert_eq!(
            Request::decode(&[1, 200]),
            Err(ProtocolError::BadTag("family", 200))
        );
        let mut ok = Request::Stats.encode();
        ok.push(0);
        assert_eq!(Request::decode(&ok), Err(ProtocolError::TrailingBytes(1)));
        // A job truncated mid-aiger.
        let full = Request::Job(spec()).encode();
        assert_eq!(
            Request::decode(&full[..full.len() - 2]),
            Err(ProtocolError::Truncated)
        );
    }
}
