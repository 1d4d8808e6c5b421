//! Message accounting in the paper's unit: data elements transmitted.
//!
//! The evaluation's "message overhead" (Figs 6, 10, 11) counts the number of
//! *elements* sent over the network: ordinary data elements, duplicate
//! copies sent by active standby, the elements contained in checkpoint
//! messages (retained output-queue data plus internal state expressed in
//! element units), and state read-back during hybrid rollback. Control
//! traffic (acks, heartbeats, signalling) is tracked alongside in message
//! units for completeness.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Classes of traffic a stream-processing HA system generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MsgClass {
    /// Primary-path data elements.
    Data,
    /// Redundant data elements (second active-standby copy, retransmissions).
    DupData,
    /// Elements carried inside checkpoint messages.
    Checkpoint,
    /// Elements read back from a secondary during hybrid rollback.
    StateTransfer,
    /// Accumulative acknowledgments (queue trimming).
    Ack,
    /// Heartbeat pings and replies.
    Heartbeat,
    /// Deploy/resume/activate and other control signalling.
    Control,
}

impl MsgClass {
    /// All classes, in display order.
    pub const ALL: [MsgClass; 7] = [
        MsgClass::Data,
        MsgClass::DupData,
        MsgClass::Checkpoint,
        MsgClass::StateTransfer,
        MsgClass::Ack,
        MsgClass::Heartbeat,
        MsgClass::Control,
    ];

    /// `true` for classes measured in element units (the paper's overhead
    /// metric).
    pub fn is_element_class(self) -> bool {
        matches!(
            self,
            MsgClass::Data | MsgClass::DupData | MsgClass::Checkpoint | MsgClass::StateTransfer
        )
    }

    fn index(self) -> usize {
        match self {
            MsgClass::Data => 0,
            MsgClass::DupData => 1,
            MsgClass::Checkpoint => 2,
            MsgClass::StateTransfer => 3,
            MsgClass::Ack => 4,
            MsgClass::Heartbeat => 5,
            MsgClass::Control => 6,
        }
    }
}

impl fmt::Display for MsgClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MsgClass::Data => "data",
            MsgClass::DupData => "dup-data",
            MsgClass::Checkpoint => "checkpoint",
            MsgClass::StateTransfer => "state-transfer",
            MsgClass::Ack => "ack",
            MsgClass::Heartbeat => "heartbeat",
            MsgClass::Control => "control",
        };
        f.write_str(name)
    }
}

/// Per-class counts of messages and the elements they carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsgCounters {
    messages: [u64; 7],
    elements: [u64; 7],
}

impl MsgCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        MsgCounters::default()
    }

    /// Records one message of `class` carrying `elements` element units.
    pub fn record(&mut self, class: MsgClass, elements: u64) {
        self.messages[class.index()] += 1;
        self.elements[class.index()] += elements;
    }

    /// Messages counted in `class`.
    pub fn messages(&self, class: MsgClass) -> u64 {
        self.messages[class.index()]
    }

    /// Element units counted in `class`.
    pub fn elements(&self, class: MsgClass) -> u64 {
        self.elements[class.index()]
    }

    /// Total element units across the element-bearing classes — the paper's
    /// "message overhead (# of elements)".
    pub fn total_elements(&self) -> u64 {
        MsgClass::ALL
            .iter()
            .filter(|c| c.is_element_class())
            .map(|c| self.elements[c.index()])
            .sum()
    }

    /// Element overhead relative to a baseline run, as a ratio:
    /// `(self − base) / base`. Returns `None` when the baseline is zero.
    pub fn overhead_vs(&self, base: &MsgCounters) -> Option<f64> {
        let b = base.total_elements();
        if b == 0 {
            return None;
        }
        Some((self.total_elements() as f64 - b as f64) / b as f64)
    }
}

impl Add for MsgCounters {
    type Output = MsgCounters;
    fn add(mut self, rhs: MsgCounters) -> MsgCounters {
        self += rhs;
        self
    }
}

impl AddAssign for MsgCounters {
    fn add_assign(&mut self, rhs: MsgCounters) {
        for i in 0..7 {
            self.messages[i] += rhs.messages[i];
            self.elements[i] += rhs.elements[i];
        }
    }
}

impl fmt::Display for MsgCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for class in MsgClass::ALL {
            let e = self.elements(class);
            let m = self.messages(class);
            if m == 0 {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{class}={e}el/{m}msg")?;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut c = MsgCounters::new();
        c.record(MsgClass::Data, 10);
        c.record(MsgClass::Data, 5);
        c.record(MsgClass::Ack, 0);
        assert_eq!(c.messages(MsgClass::Data), 2);
        assert_eq!(c.elements(MsgClass::Data), 15);
        assert_eq!(c.messages(MsgClass::Ack), 1);
    }

    #[test]
    fn total_elements_excludes_control_classes() {
        let mut c = MsgCounters::new();
        c.record(MsgClass::Data, 100);
        c.record(MsgClass::DupData, 50);
        c.record(MsgClass::Checkpoint, 20);
        c.record(MsgClass::StateTransfer, 5);
        c.record(MsgClass::Heartbeat, 999);
        c.record(MsgClass::Ack, 999);
        c.record(MsgClass::Control, 999);
        assert_eq!(c.total_elements(), 175);
    }

    #[test]
    fn overhead_ratio() {
        let mut base = MsgCounters::new();
        base.record(MsgClass::Data, 1_000);
        let mut mine = MsgCounters::new();
        mine.record(MsgClass::Data, 1_000);
        mine.record(MsgClass::Checkpoint, 100);
        assert!((mine.overhead_vs(&base).unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(mine.overhead_vs(&MsgCounters::new()), None);
    }

    #[test]
    fn addition_is_elementwise() {
        let mut a = MsgCounters::new();
        a.record(MsgClass::Data, 3);
        let mut b = MsgCounters::new();
        b.record(MsgClass::Data, 4);
        b.record(MsgClass::Heartbeat, 0);
        let sum = a + b;
        assert_eq!(sum.elements(MsgClass::Data), 7);
        assert_eq!(sum.messages(MsgClass::Data), 2);
        assert_eq!(sum.messages(MsgClass::Heartbeat), 1);
    }

    #[test]
    fn display_shows_nonzero_classes() {
        let mut c = MsgCounters::new();
        c.record(MsgClass::Data, 2);
        let s = c.to_string();
        assert!(s.contains("data=2el/1msg"));
        assert!(!s.contains("heartbeat"));
        assert_eq!(MsgCounters::new().to_string(), "(empty)");
    }
}
