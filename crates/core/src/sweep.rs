//! The data-plane retransmission sweep's memory: which connections sit on
//! the `(acked, next_to_send)` pair they showed a sweep ago, and when each
//! of them is next due a rewind.

use std::collections::btree_map::{BTreeMap, Entry};

use crate::config::{rel_backoff, REL_SWEEP_INTERVAL};
use crate::message::ProducerAddr;

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
pub(crate) struct SweepLedger {
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
    pub(crate) fn observe(
        &mut self,
        key: SweepKey,
        window: Option<(u64, u64)>,
        reachable: bool,
    ) -> bool {
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
    use sps_engine::{InstanceId, PeId, Replica, SourceId};

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
}
