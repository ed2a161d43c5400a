//! # aivril-serve — the multi-tenant RTL-generation job service
//!
//! The paper frames the EDA-in-the-loop flow as an interactive service;
//! this crate is that front-end over the batch machinery: a persistent
//! TCP server (`aivril-serve`) speaking a newline-delimited JSON
//! protocol ([`protocol`]), with a command-line client
//! (`aivril-submit`).
//!
//! Architecture, bottom up:
//!
//! * **Execution** reuses [`aivril_bench::Harness::run_job`]: one
//!   submitted job is one pipeline run over the shared tool suite, so
//!   concurrent jobs from every tenant batch their EDA compiles through
//!   the one content-addressed [`aivril_eda::EdaCache`] (and its disk
//!   tier), and the simulated models share one task library.
//! * **Admission** ([`queue`]) is per tenant: at most
//!   `AIVRIL_SERVE_MAX_INFLIGHT` jobs executing and
//!   `AIVRIL_SERVE_MAX_QUEUE` more waiting. Beyond that the service
//!   answers with a structured `reject` frame carrying `retry_after_s`
//!   — the queue is bounded by construction, overload can never grow
//!   it. Tenant identity is client-asserted and untrusted, so global
//!   caps back the per-tenant ones: `AIVRIL_SERVE_MAX_JOBS` bounds
//!   admitted work service-wide (`server_full`) and
//!   `AIVRIL_SERVE_MAX_TENANTS` bounds distinct tenant states
//!   (`tenant_limit`, with idle-tenant eviction), so forged tenant
//!   names cannot grow memory or queue depth without bound. A
//!   [`aivril_core::BreakerBank`] gives each tenant its own circuit
//!   breaker at the admission boundary, so one tenant's fault storm
//!   cannot trip another tenant's breaker.
//! * **Backpressure** ([`outbox`]): all socket writes happen on a
//!   per-connection writer thread draining a bounded frame queue, so
//!   neither admission (which pins ack ordering under the queue lock)
//!   nor workers ever block on a client socket; a client that stops
//!   reading is dropped on outbox overflow or write timeout while its
//!   jobs still complete.
//! * **Durability** ([`journal`]): with `AIVRIL_SERVE_JOURNAL_DIR`
//!   set, every accepted admission is written ahead to a checksummed
//!   append-only journal under the queue lock, and every terminal
//!   outcome appends a matching `done`. A crashed server restarted
//!   over the same directory re-admits the unfinished jobs — and
//!   because seeds are pure functions of `(tenant, job)`, replays them
//!   byte-identically. Submission is idempotent on that identity:
//!   resubmitting a still-running job re-attaches the client to it,
//!   and resubmitting a recently finished one replays its memoized
//!   frames without a second execution.
//! * **Determinism** is per job: [`job_seed`] derives the run seed
//!   purely from `(tenant, job)` — the grid harness's
//!   [`aivril_bench::run_seed`] discipline with job identity as the
//!   coordinates — and every response frame is rendered from modeled
//!   time only. Progress frames replay the job's journal events
//!   ([`aivril_obs::render_event`]) *after* the run completes, in
//!   span-close order, so resubmitting a job yields byte-identical
//!   frames however other jobs interleave and however many workers the
//!   server runs. Admission verdicts (`ack`/`reject`) are the one
//!   schedule-dependent plane and carry no volatile fields beyond
//!   `retry_after_s`.

#![warn(missing_docs)]

pub mod config;
pub mod journal;
pub mod outbox;
pub mod protocol;
pub mod queue;
pub mod server;

pub use config::ServeConfig;
pub use journal::JobJournal;
pub use protocol::{Request, SubmitRequest, MAX_REQUEST_LINE, PROTOCOL_VERSION};
pub use queue::{Admission, FrameSink, Job, JobQueue, QueueStats, SinkSlot};
pub use server::Server;

use aivril_obs::codec;

/// The seed of a submitted job, derived purely from its identity:
/// the `(tenant, job)` pair is codec-encoded (length-delimited, so
/// `("ab", "c")` and `("a", "bc")` differ) and FNV-64 hashed. The
/// [`aivril_bench::run_seed`] discipline with job identity as the grid
/// coordinates — replaying a job replays its seed, and therefore its
/// entire run.
#[must_use]
pub fn job_seed(tenant: &str, job: &str) -> u64 {
    let mut w = codec::Writer::new();
    w.str(tenant);
    w.str(job);
    codec::fnv64(w.payload().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seeds_are_stable_and_identity_sensitive() {
        assert_eq!(job_seed("acme", "j1"), job_seed("acme", "j1"));
        assert_ne!(job_seed("acme", "j1"), job_seed("acme", "j2"));
        assert_ne!(job_seed("acme", "j1"), job_seed("globex", "j1"));
        // Length-delimited encoding: moving a byte across the
        // tenant/job boundary changes the seed.
        assert_ne!(job_seed("ab", "c"), job_seed("a", "bc"));
    }
}
