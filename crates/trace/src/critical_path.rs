//! Recovery critical-path extraction: turns a per-subjob recovery phase
//! log into, for each recovery cycle, the dependency chain of labelled
//! edges that tiles the cycle — detection, switch-over (resume + replay),
//! redeploy/reconnect, promotion, state read + rewind — with per-edge
//! time attribution.
//!
//! Within one subjob the recovery protocol is a single sequential chain
//! (each phase strictly awaits its predecessor), so the chain of phase
//! boundaries *is* the longest dependency path of that cycle; across
//! subjobs, [`longest_critical_path`] picks the cycle that bounds the
//! whole recovery.

use sps_sim::SimTime;

use crate::event::RecoveryPhase;
use crate::sink::PhaseRecord;
use crate::spans::recovery_spans;

/// One attributed edge on a recovery critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPathEdge {
    /// What the protocol was waiting on during this edge.
    pub label: &'static str,
    /// Edge start.
    pub from: SimTime,
    /// Edge end.
    pub to: SimTime,
}

impl CriticalPathEdge {
    /// Edge length in milliseconds.
    pub fn millis(&self) -> f64 {
        (self.to - self.from).as_secs_f64() * 1e3
    }
}

/// The critical path of one recovery cycle of one subjob.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryCriticalPath {
    /// The subjob recovering.
    pub subjob: u32,
    /// Which recovery cycle of that subjob (0-based).
    pub cycle: u32,
    /// Path start: the failure-injection anchor for the first cycle, the
    /// previous phase boundary otherwise.
    pub start: SimTime,
    /// Path end: the last phase boundary of the cycle.
    pub end: SimTime,
    /// The edges, in dependency order; consecutive edges share endpoints.
    pub edges: Vec<CriticalPathEdge>,
}

impl RecoveryCriticalPath {
    /// Whole-cycle duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// Milliseconds attributed to labelled edges.
    pub fn attributed_ms(&self) -> f64 {
        self.edges.iter().map(CriticalPathEdge::millis).sum()
    }

    /// Fraction of the cycle duration the edges attribute (1.0 for a
    /// zero-length cycle). The edges tile the cycle by construction, so
    /// anything below 1.0 indicates a gap in the phase log.
    pub fn coverage(&self) -> f64 {
        let d = self.duration_ms();
        if d <= 0.0 {
            1.0
        } else {
            self.attributed_ms() / d
        }
    }

    /// The edge with the given label, if present.
    pub fn edge(&self, label: &str) -> Option<&CriticalPathEdge> {
        self.edges.iter().find(|e| e.label == label)
    }
}

/// What each phase boundary was waiting on — the label of the edge the
/// boundary closes.
fn edge_label(phase: RecoveryPhase) -> &'static str {
    match phase {
        // Inject (or cycle start) → Detected: heartbeat / benchmark miss
        // accumulation.
        RecoveryPhase::Detected => "detection",
        // Detected → SwitchoverComplete: secondary resume, output
        // activation, and replay from the acked cursor.
        RecoveryPhase::SwitchoverComplete => "switch_over",
        // SwitchedOver → RollbackStarted: operating on the secondary until
        // the failed primary returns (a fresh pong arrives).
        RecoveryPhase::RollbackStarted => "primary_return",
        // RollbackStarted → RollbackComplete: checkpoint state read,
        // rewind, and re-adoption by the returning primary.
        RecoveryPhase::RollbackComplete => "state_read",
        // Detected → PsDeployed: allocating + deploying a fresh instance
        // from the sweeping checkpoint.
        RecoveryPhase::PsDeployed => "redeploy",
        // PsDeployed → PsConnected: reconnecting queues and filling input
        // gaps from upstream retained output.
        RecoveryPhase::PsConnected => "reconnect",
        // → Promoted: the standby taking over as the new primary.
        RecoveryPhase::Promoted => "promotion",
        // → SecondaryReady: re-provisioning a fresh standby afterwards.
        RecoveryPhase::SecondaryReady => "standby_ready",
    }
}

/// Extracts one [`RecoveryCriticalPath`] per `(subjob, cycle)` from a
/// phase log. `injects` is the ascending list of failure-injection times;
/// each cycle's detection edge anchors at the latest injection at or
/// before its `Detected` boundary, so healthy operation between cycles is
/// not mis-attributed to detection. Edges are the folded recovery spans of
/// the cycle relabelled by what the protocol was waiting on; they tile the
/// cycle, so attribution covers the full duration whenever the phase log
/// itself has no gaps.
pub fn recovery_critical_paths(
    phases: &[PhaseRecord],
    injects: &[SimTime],
) -> Vec<RecoveryCriticalPath> {
    let origin = injects.first().copied().unwrap_or(SimTime::ZERO);
    let mut paths: Vec<RecoveryCriticalPath> = Vec::new();
    for span in recovery_spans(phases, origin) {
        let mut edge = CriticalPathEdge {
            label: edge_label(span.phase),
            from: span.start,
            to: span.end,
        };
        let is_new = !paths
            .iter()
            .any(|p| p.subjob == span.subjob && p.cycle == span.cycle);
        if is_new && span.phase == RecoveryPhase::Detected {
            // Tighten the cycle start to the failure that triggered it.
            if let Some(&inj) = injects.iter().take_while(|&&t| t <= edge.to).last() {
                if inj > edge.from {
                    edge.from = inj;
                }
            }
        }
        match paths
            .iter_mut()
            .find(|p| p.subjob == span.subjob && p.cycle == span.cycle)
        {
            Some(p) => {
                p.end = span.end;
                p.edges.push(edge);
            }
            None => paths.push(RecoveryCriticalPath {
                subjob: span.subjob,
                cycle: span.cycle,
                start: edge.from,
                end: edge.to,
                edges: vec![edge],
            }),
        }
    }
    paths
}

/// The cycle whose critical path is longest — the one that bounds the
/// recovery as a whole.
pub fn longest_critical_path(paths: &[RecoveryCriticalPath]) -> Option<&RecoveryCriticalPath> {
    paths
        .iter()
        .max_by(|a, b| a.duration_ms().total_cmp(&b.duration_ms()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(at_ms: u64, subjob: u32, phase: RecoveryPhase) -> PhaseRecord {
        PhaseRecord {
            at: SimTime::from_millis(at_ms),
            subjob,
            phase,
        }
    }

    #[test]
    fn hybrid_cycle_tiles_into_attributed_edges() {
        let phases = [
            phase(100, 1, RecoveryPhase::Detected),
            phase(150, 1, RecoveryPhase::SwitchoverComplete),
            phase(400, 1, RecoveryPhase::RollbackStarted),
            phase(460, 1, RecoveryPhase::RollbackComplete),
        ];
        let paths = recovery_critical_paths(&phases, &[SimTime::from_millis(40)]);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.subjob, 1);
        assert_eq!(p.start, SimTime::from_millis(40));
        assert_eq!(p.end, SimTime::from_millis(460));
        let labels: Vec<_> = p.edges.iter().map(|e| e.label).collect();
        assert_eq!(
            labels,
            vec!["detection", "switch_over", "primary_return", "state_read"]
        );
        assert!((p.edge("detection").unwrap().millis() - 60.0).abs() < 1e-9);
        assert!((p.edge("switch_over").unwrap().millis() - 50.0).abs() < 1e-9);
        // Edges tile: attribution covers the whole cycle.
        assert!((p.attributed_ms() - p.duration_ms()).abs() < 1e-9);
        assert!(p.coverage() >= 0.95);
        // Consecutive edges share endpoints (a chain, not a bag).
        for w in p.edges.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
    }

    #[test]
    fn cycles_and_subjobs_produce_separate_paths() {
        let phases = [
            phase(100, 1, RecoveryPhase::Detected),
            phase(150, 1, RecoveryPhase::SwitchoverComplete),
            phase(120, 2, RecoveryPhase::Detected),
            phase(500, 2, RecoveryPhase::PsDeployed),
            phase(520, 2, RecoveryPhase::PsConnected),
            // Subjob 1 fails again: second cycle.
            phase(900, 1, RecoveryPhase::Detected),
            phase(960, 1, RecoveryPhase::SwitchoverComplete),
        ];
        let injects = [SimTime::from_millis(50), SimTime::from_millis(880)];
        let paths = recovery_critical_paths(&phases, &injects);
        assert_eq!(paths.len(), 3);
        let longest = longest_critical_path(&paths).unwrap();
        assert_eq!((longest.subjob, longest.cycle), (2, 0));
        assert_eq!(longest.edge("redeploy").unwrap().millis(), 380.0);
        // The second cycle anchors at its own inject (880), not at the end
        // of the first cycle (150): the 730 ms of healthy operation in
        // between is not "detection time".
        let sj1c1 = paths
            .iter()
            .find(|p| p.subjob == 1 && p.cycle == 1)
            .unwrap();
        assert_eq!(sj1c1.start, SimTime::from_millis(880));
        assert_eq!(sj1c1.edges.len(), 2);
        assert_eq!(sj1c1.edge("detection").unwrap().millis(), 20.0);
        assert!(sj1c1.coverage() >= 0.95);
    }
}
