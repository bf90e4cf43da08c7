//! The per-worker pipeline and its in-progress stages.
//!
//! A worker's execution pipeline holds at most two pinned task copies — the
//! one being computed plus at most one look-ahead copy whose data is in
//! flight or buffered (Section 3.3: "task data is received for at most one
//! task beyond the one currently being computed"). Additionally the worker
//! may hold partial or complete program state, and a transient list of
//! copies *bound* by the scheduler this slot whose transfers have not begun
//! (bound copies are unpinned: they return to the pool at slot end, per the
//! dynamic-heuristics model \[D5\]). The pipeline of every worker lives in
//! the columns of [`WorkerSoA`](crate::store::WorkerSoA); the two stages
//! that carry progress are described here.

use vg_des::{Slot, SlotSpan};

use crate::task::CopyId;

/// An in-flight data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferState {
    /// The copy whose input is being received.
    pub copy: CopyId,
    /// Slots of data received so far (`< t_data` while in flight).
    pub done: SlotSpan,
    /// Slot at which the transfer began (bandwidth priority: older first).
    pub began_at: Slot,
}

/// An in-progress computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeState {
    /// The copy being computed.
    pub copy: CopyId,
    /// UP-slots of compute performed (`< w` while in progress).
    pub done: SlotSpan,
}
