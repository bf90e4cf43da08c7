//! # vg-platform — the volatile desktop-grid platform model
//!
//! Implements Section 3.2 of Casanova, Dufossé, Robert & Vivien (IPDPS 2011):
//! `p` volatile processors, each alternating between `UP`, `RECLAIMED` and
//! `DOWN`, served by an always-up master whose outgoing bandwidth follows the
//! *bounded multi-port* model (`n_prog + n_data ≤ ncom`).
//!
//! * [`processor`] — processor identities and per-processor speed `w_q`;
//! * [`trace`] — realized availability vectors `S_q` (dense, RLE, textual);
//! * [`source`] — per-slot state generators: Markov, semi-Markov, replay;
//! * [`fault`] — the scripted chaos DSL (`kill 30% at 100 for 50`);
//! * [`volatility`] — scripted overlays and correlated/diurnal models;
//! * [`network`] — the master's channel ledger enforcing `ncom`;
//! * [`config`] — serde-serializable platform/application descriptions.

pub mod config;
pub mod fault;
pub mod network;
pub mod processor;
pub mod source;
pub mod trace;
pub mod trace_io;
pub mod volatility;

pub use config::{
    AppConfig, AvailabilityModelConfig, ConfigError, PlatformConfig, ProcessorConfig,
};
pub use fault::{CompiledScript, FaultScript, FaultScriptError};
pub use network::{BandwidthLedger, TransferKind};
pub use processor::{ProcessorId, ProcessorSpec};
pub use source::{
    AvailabilitySource, MarkovSourceBank, ReplaySource, RowSource, SharedTraceMatrix, StartPolicy,
    TailBehavior,
};
pub use trace::{RleTrace, Trace};
pub use trace_io::TraceSet;
pub use volatility::{CorrelatedModel, CorrelatedSource, DiurnalSpec, GroupSpec, ScriptedOverlay};
