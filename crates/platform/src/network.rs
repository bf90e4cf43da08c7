//! The bounded multi-port communication model (Section 3.2).
//!
//! The master owns a network card of capacity `BW`; each worker transfer runs
//! at a fixed bandwidth `bw`, so at most `ncom = BW / bw` transfers can be
//! served in any slot, and `n_prog + n_data ≤ ncom` must hold where `n_prog`
//! counts program transfers and `n_data` counts task-input transfers.
//!
//! [`BandwidthLedger`] enforces the constraint one slot at a time and keeps
//! utilization statistics; the simulator opens a fresh slot each tick and the
//! invariant checker reads the counters.

/// What a granted channel carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// The application program (`V_prog` bytes, `T_prog` slots).
    Program,
    /// One task's input data (`V_data` bytes, `T_data` slots).
    Data,
}

/// Per-slot accounting of the master's outgoing channels.
#[derive(Debug, Clone)]
pub struct BandwidthLedger {
    ncom: usize,
    granted_prog: usize,
    granted_data: usize,
    // Cumulative statistics across slots.
    slots_opened: u64,
    total_granted: u64,
}

impl BandwidthLedger {
    /// Creates a ledger for a master with `ncom` channels.
    ///
    /// # Panics
    /// Panics if `ncom == 0` — the master must be able to talk to at least
    /// one worker.
    #[must_use]
    pub fn new(ncom: usize) -> Self {
        assert!(ncom >= 1, "master needs at least one channel");
        Self {
            ncom,
            granted_prog: 0,
            granted_data: 0,
            slots_opened: 0,
            total_granted: 0,
        }
    }

    /// Capacity `ncom`.
    #[must_use]
    pub fn ncom(&self) -> usize {
        self.ncom
    }

    /// Starts a new slot: releases all channels (transfers re-arbitrate
    /// every slot; a suspended worker must not hold a channel).
    pub fn open_slot(&mut self) {
        self.granted_prog = 0;
        self.granted_data = 0;
        self.slots_opened += 1;
    }

    /// Channels still free this slot.
    #[must_use]
    fn available(&self) -> usize {
        self.ncom - self.granted_prog - self.granted_data
    }

    /// Attempts to grant a channel; returns whether it was granted.
    pub fn try_grant(&mut self, kind: TransferKind) -> bool {
        if self.available() == 0 {
            return false;
        }
        match kind {
            TransferKind::Program => self.granted_prog += 1,
            TransferKind::Data => self.granted_data += 1,
        }
        self.total_granted += 1;
        true
    }

    /// The Section 3.2 invariant: `n_prog + n_data ≤ ncom`.
    #[must_use]
    pub fn invariant_holds(&self) -> bool {
        self.granted_prog + self.granted_data <= self.ncom
    }

    /// Mean fraction of channels in use per opened slot.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.slots_opened == 0 {
            return 0.0;
        }
        self.total_granted as f64 / (self.slots_opened as f64 * self.ncom as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_up_to_capacity() {
        let mut l = BandwidthLedger::new(2);
        l.open_slot();
        assert!(l.try_grant(TransferKind::Program));
        assert!(l.try_grant(TransferKind::Data));
        assert!(!l.try_grant(TransferKind::Data));
        assert_eq!(l.available(), 0);
        assert!(l.invariant_holds());
    }

    #[test]
    fn open_slot_releases_channels() {
        let mut l = BandwidthLedger::new(1);
        l.open_slot();
        assert!(l.try_grant(TransferKind::Data));
        assert_eq!(l.available(), 0);
        l.open_slot();
        assert_eq!(l.available(), 1);
        assert!(l.try_grant(TransferKind::Program));
    }

    #[test]
    fn counts_split_by_kind() {
        let mut l = BandwidthLedger::new(3);
        l.open_slot();
        l.try_grant(TransferKind::Program);
        l.try_grant(TransferKind::Data);
        l.try_grant(TransferKind::Data);
        assert_eq!(l.granted_prog, 1);
        assert_eq!(l.granted_data, 2);
    }

    #[test]
    fn utilization_statistics() {
        let mut l = BandwidthLedger::new(2);
        l.open_slot(); // 2/2 used
        l.try_grant(TransferKind::Data);
        l.try_grant(TransferKind::Data);
        l.open_slot(); // 0/2 used
        assert!((l.mean_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_empty_is_zero() {
        let l = BandwidthLedger::new(4);
        assert_eq!(l.mean_utilization(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_capacity_rejected() {
        let _ = BandwidthLedger::new(0);
    }
}
