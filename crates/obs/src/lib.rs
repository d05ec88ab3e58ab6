//! Observability for the RA-Tucker stack.
//!
//! Three layers, each usable on its own:
//!
//! 1. **Span tracing** ([`span`], [`TraceSession`]): per-rank
//!    begin/end spans carrying a phase label, an optional tensor mode,
//!    and the communication the span performed (attributed
//!    *exclusively* — a parent's counters exclude its children). The
//!    recorder lives in [`ratucker_mpi::trace`], because its state
//!    belongs to a universe's fabric: a session traces one universe,
//!    and a span site on an untraced universe costs one relaxed atomic
//!    load. The names are re-exported here.
//! 2. **Chrome trace export** ([`chrome`]): merges all ranks' spans
//!    into one trace-event JSON file loadable in `chrome://tracing` or
//!    Perfetto, one "process" per rank — plus a parser and validator
//!    for the same files so CI can smoke-check emitted traces.
//! 3. **Analysis** ([`analysis`], [`validate`]): per-phase load
//!    imbalance and per-phase maxima across ranks, and a perf-model
//!    validation report comparing measured per-phase communication
//!    volume against [`ratucker_perfmodel`] predictions.
//!
//! Communication attribution builds on [`ratucker_mpi`]'s
//! per-collective-kind traffic counters ([`ratucker_mpi::KindSnapshot`]);
//! the sum of all spans' exclusive counters on a rank equals that
//! rank's source-side totals, so per-phase bytes partition the global
//! [`ratucker_mpi::TrafficStats`] exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod chrome;
pub mod json;
pub mod straggler;
pub mod tenant;
pub mod validate;

pub use analysis::{PhaseBreakdown, PhaseStat};
pub use chrome::{
    export_string, parse, validate_parsed, write_trace, ParsedSpan, ParsedTrace, TraceFileError,
};
pub use ratucker_mpi::trace::{
    span, span_mode, Span, SpanEvent, Trace, TraceSession, DEFAULT_RING_CAPACITY,
};
pub use straggler::{scores_from_breakdown, StragglerDetector, StragglerPolicy};
pub use tenant::{TenantAccount, TenantLedger};
pub use validate::{
    validate_against_model, PerfDeviation, PhaseValidation, ValidationConfig, ValidationReport,
};
