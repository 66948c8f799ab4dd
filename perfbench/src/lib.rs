//! Benchmark of the bright-field AAPSM detect → correct → verify flow.
//!
//! The benchmark drives the workspace crates through their public API
//! only. Four workloads ([`workloads::Workload`]) each time one kind of
//! operation end to end; a separate traced run ([`tour`]) reassembles the
//! flow from public calls and records a span around each call into a
//! layer, so per-layer figures need no library instrumentation.
//!
//! Every operation is checked by an independent oracle ([`oracle`]); a
//! mismatch counts as a failed operation, never a silent one.
//!
//! See `perfbench/README.md` for the workloads, the metrics and the
//! layer → end-to-end map.

pub mod calib;
pub mod gdsenc;
pub mod inputs;
pub mod metrics;
pub mod oracle;
pub mod service_loop;
pub mod tour;
pub mod trace;
pub mod workloads;

use aapsm_core::{DetectConfig, FlowConfig};

/// Pipeline worker count used by every flow and detection call. Pinned
/// (never `0` = auto) so the tile partition does not follow the host.
pub const PIPELINE_PARALLELISM: usize = 1;

/// Service worker-pool size, before clamping to the host's parallelism.
pub const SERVICE_WORKERS: usize = 2;

/// Requests the eco client keeps outstanding.
pub const ECO_OUTSTANDING: usize = 2;

/// Tiles per axis the sharded graph build picks for
/// [`PIPELINE_PARALLELISM`] workers: the smallest `K` with
/// `K² ≥ 4·workers` (the rule of `aapsm_core::TileConfig`), recorded in
/// the run metadata and passed explicitly where the API takes it.
pub fn tiles_per_axis() -> usize {
    let mut k = 1;
    while k * k < 4 * PIPELINE_PARALLELISM {
        k += 1;
    }
    k
}

/// The host's available parallelism (1 when unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Service workers actually started: [`SERVICE_WORKERS`], never more than
/// the host offers.
pub fn service_workers() -> usize {
    SERVICE_WORKERS.min(available_parallelism()).max(1)
}

/// The detection configuration every workload uses.
pub fn detect_config() -> DetectConfig {
    DetectConfig {
        parallelism: PIPELINE_PARALLELISM,
        ..DetectConfig::default()
    }
}

/// The flow configuration every flow workload uses.
pub fn flow_config() -> FlowConfig {
    FlowConfig {
        detect: detect_config(),
        ..FlowConfig::default()
    }
}

/// The correction-planner options every plan uses.
pub fn correction_options() -> aapsm_core::CorrectionOptions {
    aapsm_core::CorrectionOptions {
        parallelism: PIPELINE_PARALLELISM,
        ..aapsm_core::CorrectionOptions::default()
    }
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
