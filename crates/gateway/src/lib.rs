//! # flowtree-gateway — a networked front door for `flowtree-serve`
//!
//! Everything in [`flowtree_serve`] assumes the arrival source lives in
//! the server process. This crate puts the shard pool behind a socket: a
//! length-framed [`wire`] protocol (JSON control plane plus a negotiated
//! binary codec for the hot messages), an event-driven [`Gateway`] server
//! that multiplexes any number of connections onto a fixed worker pool
//! feeding one [`PoolHandle`](flowtree_serve::PoolHandle), and a blocking
//! [`GatewayClient`] with pipelined submits and reconnect-and-resume for
//! replay drivers.
//!
//! Design invariants, pinned by the integration tests:
//!
//! * **Transparency** — a single client replaying a trace through the
//!   gateway produces a [`StoreRecord`](flowtree_serve::StoreRecord)
//!   byte-for-byte identical to the in-process `serve` path on the same
//!   pool configuration (placement is a pure function of arrival order).
//! * **Exact books** — with any number of interleaved clients, no job is
//!   lost and the pool ledger `delivered + dropped + staged == offered`
//!   balances across all clients combined; a [`Reply::Busy`] batch was
//!   never offered, so it perturbs no counter.
//! * **No panic from bytes** — malformed frames (truncated, oversized,
//!   non-JSON, unknown tag) are answered with a typed
//!   [`Reply::Reject`] or a clean close; they never reach a shard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{
    ClientError, ClientOptions, ClientRunStats, GatewayClient, RemoteSnapshot, SubmitOutcome,
};
pub use server::{Gateway, GatewayConfig, GatewayStats, MAX_WINDOW};
pub use wire::{
    decode, decode_reply, decode_request, decode_submit_into, encode, encode_reply_into,
    encode_request_into, encode_submit_batch_into, read_frame, read_frame_patient_into,
    write_frame, FrameError, Reply, Request, WireCodec, BINARY_MARKER, MAX_FRAME, PROTOCOL_VERSION,
};
