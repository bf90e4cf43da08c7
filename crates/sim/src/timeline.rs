//! Per-slot activity timelines and an ASCII Gantt renderer.
//!
//! When enabled ([`crate::SimOptions::record_timeline`]), the engine records
//! what every worker did in every slot — the raw material for debugging a
//! scheduling decision, for the `gantt` example, and for computing
//! per-worker utilization. Recording costs one byte per worker per slot.

use vg_des::Slot;
use vg_markov::ProcState;

/// What one worker did during one slot (one byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Activity {
    /// `UP` but no assigned work progressed.
    IdleUp,
    /// Receiving the program.
    RecvProg,
    /// Receiving task data.
    RecvData,
    /// Computing a task.
    Compute,
    /// Computing while receiving the next task's data (the overlap the
    /// model is designed around).
    ComputeAndRecv,
    /// `RECLAIMED` — suspended (pinned work may be waiting).
    Reclaimed,
    /// `DOWN` — crashed.
    Down,
}

impl Activity {
    /// One-character Gantt glyph.
    #[must_use]
    pub fn glyph(self) -> char {
        match self {
            Self::IdleUp => '·',
            Self::RecvProg => 'P',
            Self::RecvData => 'D',
            Self::Compute => 'C',
            Self::ComputeAndRecv => 'B',
            Self::Reclaimed => 'r',
            Self::Down => 'x',
        }
    }

    /// True when the worker made forward progress this slot.
    #[must_use]
    fn is_productive(self) -> bool {
        matches!(
            self,
            Self::RecvProg | Self::RecvData | Self::Compute | Self::ComputeAndRecv
        )
    }
}

/// A recorded execution timeline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Timeline {
    /// `rows[q][t]`: activity of worker `q` at slot `t`.
    rows: Vec<Vec<Activity>>,
    /// Slots at which an iteration completed.
    barriers: Vec<Slot>,
}

impl Timeline {
    /// Creates an empty timeline for `p` workers.
    #[must_use]
    pub fn new(p: usize) -> Self {
        Self {
            rows: vec![Vec::new(); p],
            barriers: Vec::new(),
        }
    }

    /// Number of workers.
    #[must_use]
    pub fn p(&self) -> usize {
        self.rows.len()
    }

    /// Number of recorded slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// Activity of worker `q` at slot `t`.
    #[must_use]
    pub fn at(&self, q: usize, t: Slot) -> Activity {
        self.rows[q][t as usize]
    }

    /// Appends one slot of activity (engine hook).
    pub fn push_slot(&mut self, activities: &[Activity]) {
        debug_assert_eq!(activities.len(), self.rows.len());
        for (row, &a) in self.rows.iter_mut().zip(activities) {
            row.push(a);
        }
    }

    /// Marks an iteration barrier at `slot` (engine hook).
    pub fn push_barrier(&mut self, slot: Slot) {
        self.barriers.push(slot);
    }

    /// Fraction of recorded slots in which worker `q` made progress.
    #[must_use]
    pub fn utilization(&self, q: usize) -> f64 {
        let row = &self.rows[q];
        if row.is_empty() {
            return 0.0;
        }
        row.iter().filter(|a| a.is_productive()).count() as f64 / row.len() as f64
    }

    /// Renders slots `[from, to)` as an ASCII Gantt chart: one row per
    /// worker, a ruler every 10 slots, `|` marking iteration barriers, and a
    /// legend.
    #[must_use]
    pub fn render(&self, from: Slot, to: Slot) -> String {
        let to = to.min(self.slots() as Slot);
        let from = from.min(to);
        let width = (to - from) as usize;
        let mut out = String::new();

        // Ruler.
        out.push_str("      ");
        for t in from..to {
            out.push(if t % 10 == 0 { '+' } else { ' ' });
        }
        out.push('\n');

        for (q, row) in self.rows.iter().enumerate() {
            out.push_str(&format!("P{q:<4} "));
            for t in from..to {
                out.push(row[t as usize].glyph());
            }
            out.push_str(&format!("  {:>5.1}%\n", 100.0 * self.utilization(q)));
        }

        // Barrier markers.
        if !self.barriers.is_empty() {
            out.push_str("iter  ");
            let mut line = vec![' '; width];
            for &b in &self.barriers {
                if (from..to).contains(&b) {
                    line[(b - from) as usize] = '|';
                }
            }
            out.extend(line);
            out.push('\n');
        }
        out.push_str(
            "      legend: P=program D=data C=compute B=compute+data ·=idle r=reclaimed x=down; | iteration done\n",
        );
        out
    }
}

/// Scratch marks collected by the engine during one slot, combined with the
/// worker's state into an [`Activity`] at slot end.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotMarks {
    /// A program channel was granted this slot.
    pub recv_prog: bool,
    /// A data channel was granted this slot.
    pub recv_data: bool,
    /// The compute unit advanced this slot.
    pub computed: bool,
}

impl SlotMarks {
    /// Folds the marks and the state into the recorded activity.
    #[must_use]
    pub fn resolve(self, state: ProcState) -> Activity {
        match state {
            ProcState::Down => Activity::Down,
            ProcState::Reclaimed => Activity::Reclaimed,
            ProcState::Up => match (self.computed, self.recv_prog || self.recv_data) {
                (true, true) => Activity::ComputeAndRecv,
                (true, false) => Activity::Compute,
                (false, true) => {
                    if self.recv_prog {
                        Activity::RecvProg
                    } else {
                        Activity::RecvData
                    }
                }
                (false, false) => Activity::IdleUp,
            },
        }
    }
}

#[cfg(test)]
impl Timeline {
    /// Slots at which iterations completed.
    pub(crate) fn barriers(&self) -> &[Slot] {
        &self.barriers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_resolution() {
        let up = ProcState::Up;
        assert_eq!(SlotMarks::default().resolve(up), Activity::IdleUp);
        assert_eq!(
            SlotMarks {
                recv_prog: true,
                ..Default::default()
            }
            .resolve(up),
            Activity::RecvProg
        );
        assert_eq!(
            SlotMarks {
                recv_data: true,
                ..Default::default()
            }
            .resolve(up),
            Activity::RecvData
        );
        assert_eq!(
            SlotMarks {
                computed: true,
                ..Default::default()
            }
            .resolve(up),
            Activity::Compute
        );
        assert_eq!(
            SlotMarks {
                computed: true,
                recv_data: true,
                ..Default::default()
            }
            .resolve(up),
            Activity::ComputeAndRecv
        );
        assert_eq!(
            SlotMarks {
                computed: false,
                ..Default::default()
            }
            .resolve(ProcState::Down),
            Activity::Down
        );
        assert_eq!(
            SlotMarks::default().resolve(ProcState::Reclaimed),
            Activity::Reclaimed
        );
    }

    #[test]
    fn timeline_accumulates_and_measures() {
        let mut tl = Timeline::new(2);
        tl.push_slot(&[Activity::RecvProg, Activity::Reclaimed]);
        tl.push_slot(&[Activity::Compute, Activity::IdleUp]);
        tl.push_slot(&[Activity::Compute, Activity::Down]);
        tl.push_barrier(2);
        assert_eq!(tl.p(), 2);
        assert_eq!(tl.slots(), 3);
        assert_eq!(tl.at(0, 1), Activity::Compute);
        assert!((tl.utilization(0) - 1.0).abs() < 1e-12);
        assert_eq!(tl.utilization(1), 0.0);
        assert_eq!(tl.barriers(), &[2]);
    }

    #[test]
    fn render_contains_rows_and_legend() {
        let mut tl = Timeline::new(2);
        for _ in 0..15 {
            tl.push_slot(&[Activity::Compute, Activity::Reclaimed]);
        }
        tl.push_barrier(14);
        let g = tl.render(0, 15);
        assert!(g.contains("P0"));
        assert!(g.contains("P1"));
        assert!(g.contains("CCCCC"));
        assert!(g.contains("rrrrr"));
        assert!(g.contains("legend"));
        assert!(g.contains('|'), "barrier marker missing:\n{g}");
    }

    #[test]
    fn render_clamps_range() {
        let mut tl = Timeline::new(1);
        tl.push_slot(&[Activity::IdleUp]);
        let g = tl.render(0, 100); // beyond recorded range
        assert!(g.contains('·'));
        let empty = tl.render(5, 3);
        assert!(empty.contains("P0"));
    }

    #[test]
    fn empty_timeline_is_safe() {
        let tl = Timeline::new(3);
        assert_eq!(tl.slots(), 0);
        assert_eq!(tl.utilization(0), 0.0);
        let _ = tl.render(0, 10);
    }
}
