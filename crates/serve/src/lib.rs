//! `synthd` — a warm-cache synthesis server.
//!
//! A long-running daemon that accepts synthesis-and-map jobs over a
//! local TCP socket and runs them on a bounded worker pool. The point
//! is *amortization*: the expensive one-time state — per-family
//! characterized libraries, NPN match caches, the rewrite library, and
//! per-circuit synthesized networks — is built once and shared across
//! every request, so a stream of jobs pays nothing like `N ×` the one-shot
//! cost. The load harness (`bench` crate's `loadgen` binary) measures
//! exactly that: p50/p99 latency and throughput against a serial
//! one-shot baseline.
//!
//! * [`wire`] — length-prefixed (`u32` LE) framing;
//! * [`protocol`] — the request/response vocabulary ([`JobSpec`],
//!   [`Response`]) and its hand-rolled byte encoding;
//! * [`cache`] — the content-keyed warm cache of synthesized networks;
//! * [`server`] — acceptor, admission control (bounded queue + typed
//!   [`Response::Busy`] backpressure), worker pool, per-request
//!   deadline/telemetry;
//! * [`client`] — the blocking client the load generator and the
//!   tests drive the server with.

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod wire;

pub use cache::{BuildLease, CacheKey, Lookup, SynthCache, SynthEntry};
pub use client::Client;
pub use protocol::{JobSpec, ProtocolError, Request, Response};
pub use server::{job_qor_json, Server, ServerConfig};
