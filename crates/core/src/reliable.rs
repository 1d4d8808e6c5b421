//! The reliable transport under [`HaConfig::reliable_control`]: the
//! transmission ids, in-flight records, receiver dedup and retransmission
//! rule of the control plane, and the data-plane sweep's memory. Every
//! verdict is decided here without a world; the caller sends what it is
//! told to send and arms the timers it is told to arm.
//!
//! [`HaConfig::reliable_control`]: crate::HaConfig::reliable_control

use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;

use sps_cluster::MachineId;
use sps_metrics::MsgClass;
use sps_sim::SimDuration;

use crate::message::{Msg, ProducerAddr};

/// Initial retransmission timeout of a reliable control message; it doubles
/// per attempt up to [`REL_RTO_MAX`].
const REL_RTO_INITIAL: SimDuration = SimDuration::from_millis(50);

/// Retransmission attempts before a reliable message is abandoned (the
/// periodic protocols re-drive any state it carried).
const REL_MAX_RETRIES: u32 = 12;

/// Period of the data-plane retransmit sweep under
/// [`HaConfig::reliable_control`](crate::HaConfig::reliable_control), and
/// the base of its backoff: a connection with sent-but-unacknowledged
/// elements and no progress over a full period has its send cursor rewound
/// to the acknowledged position and the retained elements replayed
/// (receivers deduplicate). While it stays silent the next rewinds follow
/// the control plane's rule, `REL_SWEEP_INTERVAL · 2^attempt` apart,
/// capped at [`REL_RTO_MAX`].
pub const REL_SWEEP_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Retransmission backoff cap, shared by both planes: a reliable control
/// message doubles its RTO per attempt up to this bound, and a data-plane
/// connection that stays silent is rewound by the sweep at most this far
/// apart.
pub const REL_RTO_MAX: SimDuration = SimDuration::from_millis(800);

/// The retransmission backoff both reliable planes share: the wait after
/// retransmission number `attempt` is `base · 2^attempt`, capped at
/// [`REL_RTO_MAX`]. The control plane's base is [`REL_RTO_INITIAL`], the
/// data-plane sweep's [`REL_SWEEP_INTERVAL`].
fn rel_backoff(base: SimDuration, attempt: u32) -> SimDuration {
    (base * (1u64 << attempt.min(16))).min(REL_RTO_MAX)
}

/// The reliable layer's whole state: the control plane's transmissions and
/// the data-plane sweep's ledger.
#[derive(Debug, Default)]
pub(crate) struct Reliable {
    /// Next reliable transmission id.
    next_tx: u64,
    /// In-flight reliable control messages, by transmission id.
    inflight: BTreeMap<u64, RelPending>,
    /// Transmission ids already processed at their receiver (dedup for
    /// retransmissions and chaos duplication). Ids are globally unique, so
    /// one set covers every machine.
    seen: BTreeSet<u64>,
    /// What the retransmit sweep saw of every connection at the previous
    /// sweep, and how far each stalled one is into its backoff.
    sweep: SweepLedger,
}

/// One in-flight reliable control transmission, kept by the sender until
/// acknowledged, cancelled (stale epoch, dead sender), or abandoned.
#[derive(Debug, Clone)]
pub(crate) struct RelPending {
    /// Sending machine.
    pub src: MachineId,
    /// Destination machine.
    pub dst: MachineId,
    /// The wrapped payload, re-sent verbatim on each attempt.
    pub msg: Msg,
    /// Overhead class of the payload (for per-class byte accounting).
    pub class: MsgClass,
    /// Retransmissions performed so far.
    pub attempt: u32,
}

impl Reliable {
    /// Opens a transmission of `msg` from `src` to `dst`: returns its id
    /// and the delay of its first retransmission timer.
    pub(crate) fn open(
        &mut self,
        src: MachineId,
        dst: MachineId,
        msg: &Msg,
        class: MsgClass,
    ) -> (u64, SimDuration) {
        let tx = self.next_tx;
        self.next_tx += 1;
        let pending = RelPending {
            src,
            dst,
            msg: msg.clone(),
            class,
            attempt: 0,
        };
        self.inflight.insert(tx, pending);
        (tx, REL_RTO_INITIAL)
    }

    /// The retransmission timer of `tx` fired: returns the transmission to
    /// resend, as attempt number `attempt`, and the delay of the next timer
    /// — exponential backoff — unless it was acknowledged. It is given up
    /// when the retry budget is spent, its sender is not `up`, or its
    /// payload is `stale` (a role change made retransmitting it pointless).
    pub(crate) fn on_timer(
        &mut self,
        tx: u64,
        up: impl FnOnce(MachineId) -> bool,
        stale: impl FnOnce(&Msg) -> bool,
    ) -> Option<(RelPending, SimDuration)> {
        let Entry::Occupied(mut entry) = self.inflight.entry(tx) else {
            return None; // acknowledged (or already abandoned)
        };
        let p = entry.get_mut();
        if p.attempt >= REL_MAX_RETRIES || !up(p.src) || stale(&p.msg) {
            entry.remove();
            return None;
        }
        p.attempt += 1;
        Some((p.clone(), rel_backoff(REL_RTO_INITIAL, p.attempt)))
    }

    /// A [`Msg::RelAck`] for `tx` arrived: nothing more is resent.
    pub(crate) fn on_ack(&mut self, tx: u64) {
        self.inflight.remove(&tx);
    }

    /// `true` on the first arrival of `tx` at its receiver, `false` for a
    /// retransmission or chaos duplicate of a processed transmission.
    pub(crate) fn first_arrival(&mut self, tx: u64) -> bool {
        self.seen.insert(tx)
    }

    /// The sweep's verdict on one connection (see [`SweepLedger::observe`]):
    /// `true` to rewind it now.
    pub(crate) fn sweep_due(
        &mut self,
        key: SweepKey,
        window: Option<(u64, u64)>,
        reachable: bool,
    ) -> bool {
        self.sweep.observe(key, window, reachable)
    }
}

/// A swept connection: the producer copy's output queue and the
/// connection's index in it.
pub(crate) type SweepKey = (ProducerAddr, usize);

/// One connection, as the previous sweep left it.
#[derive(Debug, Clone, Copy)]
struct Watch {
    /// `(acked, next_to_send)` at the previous sweep.
    pair: (u64, u64),
    /// Rewinds since the pair last moved: the backoff's attempt number.
    rewinds: u32,
    /// No-progress sweeps still to sit out before the next rewind.
    skip: u32,
}

/// Every connection that had unacknowledged elements in flight at the
/// previous sweep.
#[derive(Debug, Default)]
struct SweepLedger {
    watched: BTreeMap<SweepKey, Watch>,
}

impl SweepLedger {
    /// Records one sweep's look at a connection — `window` is its
    /// `(acked, next_to_send)` pair if it is active with unacknowledged
    /// elements in flight — and says whether to rewind it now.
    ///
    /// A connection is stalled while it keeps the pair of the previous
    /// sweep and its destination is reachable. Silence is not always loss:
    /// a checkpoint-acked receiver acknowledges only once its next
    /// checkpoint is stored, and may not re-ack the duplicates a rewind
    /// sends it. So a stalled connection backs off the way a reliable
    /// control message does: its first no-progress sweep rewinds, and
    /// rewind number `attempt` is followed by a wait of
    /// [`rel_backoff`]`(`[`REL_SWEEP_INTERVAL`]`, attempt)` — sweeps
    /// 1, 2, 4, 8, 16, 24, … at the defaults. A moved pair, an emptied
    /// window, and a partitioned or dead destination each restart the
    /// sequence, so the first sweep after a heal rewinds at once.
    fn observe(&mut self, key: SweepKey, window: Option<(u64, u64)>, reachable: bool) -> bool {
        let Some(pair) = window else {
            self.watched.remove(&key);
            return false;
        };
        let fresh = Watch {
            pair,
            rewinds: 0,
            skip: 0,
        };
        let watch = match self.watched.entry(key) {
            Entry::Occupied(seen) => seen.into_mut(),
            Entry::Vacant(unseen) => {
                unseen.insert(fresh);
                return false;
            }
        };
        if watch.pair != pair || !reachable {
            *watch = fresh;
            return false;
        }
        if watch.skip > 0 {
            watch.skip -= 1;
            return false;
        }
        let wait = rel_backoff(REL_SWEEP_INTERVAL, watch.rewinds);
        watch.skip = ((wait.as_nanos() / REL_SWEEP_INTERVAL.as_nanos()) as u32).saturating_sub(1);
        watch.rewinds = watch.rewinds.saturating_add(1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_engine::{InstanceId, PeId, Replica, SourceId, SubjobId};

    const KEY: SweepKey = (
        ProducerAddr::Instance(
            InstanceId {
                pe: PeId(1),
                replica: Replica::Secondary,
            },
            0,
        ),
        1,
    );

    /// Looks at a reachable connection frozen at `pair` on `n` sweeps in a
    /// row and returns the ones that rewound it, counted from 0.
    fn rewinds(ledger: &mut SweepLedger, pair: (u64, u64), n: u32) -> Vec<u32> {
        (0..n)
            .filter(|_| ledger.observe(KEY, Some(pair), true))
            .collect()
    }

    #[test]
    fn a_frozen_connection_backs_off_to_the_rto_cap() {
        let mut ledger = SweepLedger::default();
        // Sweep 0 only takes note of the pair, so sweep n is the n-th
        // without progress.
        assert_eq!(
            rewinds(&mut ledger, (5, 9), 42),
            [1, 2, 4, 8, 16, 24, 32, 40]
        );
    }

    #[test]
    fn progress_an_emptied_window_and_an_unreachable_destination_each_restart_it() {
        let mut ledger = SweepLedger::default();
        assert_eq!(rewinds(&mut ledger, (5, 9), 7), [1, 2, 4]);
        // An ack moved the pair: sweep 0 sees a new one.
        assert_eq!(rewinds(&mut ledger, (6, 9), 7), [1, 2, 4]);
        // The window emptied: the connection is forgotten.
        assert!(!ledger.observe(KEY, None, true));
        assert!(ledger.watched.is_empty());
        assert_eq!(rewinds(&mut ledger, (6, 9), 7), [1, 2, 4]);
        // No rewind into a partition or at a dead machine however long it
        // lasts; the pair is noted meanwhile, so the first sweep after the
        // heal rewinds.
        for _ in 0..7 {
            assert!(!ledger.observe(KEY, Some((6, 9)), false));
        }
        assert_eq!(rewinds(&mut ledger, (6, 9), 7), [0, 1, 3]);
        // Another connection's history is its own.
        let other = (ProducerAddr::Source(SourceId(0)), 0);
        assert!(!ledger.observe(other, Some((6, 9)), true));
        assert!(ledger.observe(other, Some((6, 9)), true));
    }

    const SRC: MachineId = MachineId(3);
    const DST: MachineId = MachineId(7);

    /// A checkpoint store-ack of subjob 2 under `epoch`.
    fn stored(epoch: u64) -> Msg {
        Msg::CheckpointStored {
            subjob: SubjobId(2),
            epoch,
            pes: Vec::new(),
        }
    }

    /// Fires the timer of `tx` with a live sender and a current payload.
    fn fire(rel: &mut Reliable, tx: u64) -> Option<(RelPending, SimDuration)> {
        rel.on_timer(tx, |_| true, |_| false)
    }

    #[test]
    fn a_control_message_backs_off_to_the_rto_cap_then_gives_up() {
        let mut rel = Reliable::default();
        let (tx, first) = rel.open(SRC, DST, &stored(4), MsgClass::Checkpoint);
        assert_eq!(first, REL_RTO_INITIAL);
        let mut waits = vec![first.as_millis_f64()];
        while let Some((resend, rto)) = fire(&mut rel, tx) {
            assert_eq!((resend.src, resend.dst), (SRC, DST));
            assert_eq!(resend.class, MsgClass::Checkpoint);
            assert!(matches!(resend.msg, Msg::CheckpointStored { epoch: 4, .. }));
            assert_eq!(resend.attempt as usize, waits.len());
            waits.push(rto.as_millis_f64());
        }
        // REL_RTO_INITIAL · 2^attempt, capped at REL_RTO_MAX, for the
        // first send and each of the REL_MAX_RETRIES resends.
        assert_eq!(waits.len(), REL_MAX_RETRIES as usize + 1);
        let mut want = vec![50.0, 100.0, 200.0, 400.0];
        want.resize(waits.len(), REL_RTO_MAX.as_millis_f64());
        assert_eq!(waits, want);
        // Given up: the record is gone, so a late timer does nothing.
        assert!(rel.inflight.is_empty());
        assert!(fire(&mut rel, tx).is_none());
    }

    #[test]
    fn a_dead_sender_or_a_stale_payload_abandons_the_message() {
        let mut rel = Reliable::default();
        let (dead, _) = rel.open(SRC, DST, &stored(4), MsgClass::Checkpoint);
        let (old, _) = rel.open(DST, SRC, &stored(4), MsgClass::Checkpoint);
        let (live, _) = rel.open(SRC, DST, &stored(5), MsgClass::Checkpoint);
        assert_eq!((dead, old, live), (0, 1, 2), "ids are handed out in order");
        assert!(rel.on_timer(dead, |m| m != SRC, |_| false).is_none());
        let stale = |msg: &Msg| matches!(msg, Msg::CheckpointStored { epoch: 4, .. });
        assert!(rel.on_timer(old, |_| true, stale).is_none());
        assert!(rel.on_timer(live, |_| true, stale).is_some());
        assert_eq!(rel.inflight.keys().copied().collect::<Vec<_>>(), [live]);
    }

    #[test]
    fn an_ack_cancels_the_pending_resend() {
        let mut rel = Reliable::default();
        let (tx, _) = rel.open(SRC, DST, &stored(4), MsgClass::Checkpoint);
        assert_eq!(fire(&mut rel, tx).map(|(p, _)| p.attempt), Some(1));
        rel.on_ack(tx);
        assert!(fire(&mut rel, tx).is_none());
        // A duplicated ack is harmless.
        rel.on_ack(tx);
        assert!(rel.inflight.is_empty());
    }

    #[test]
    fn only_the_first_arrival_of_a_transmission_is_processed() {
        let mut rel = Reliable::default();
        assert!(rel.first_arrival(9));
        // A retransmission, or a chaos duplicate of either copy.
        assert!(!rel.first_arrival(9));
        assert!(!rel.first_arrival(9));
        assert!(rel.first_arrival(10));
    }
}
