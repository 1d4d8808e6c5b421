//! The LAN model: per-message propagation latency plus per-link FIFO
//! serialization at a configurable bandwidth, with optional chaos faults.
//!
//! Like [`Machine`](crate::Machine), the network is passive: the sender asks
//! for a delivery verdict and schedules its own delivery event(s). Each
//! ordered machine pair is an independent link whose serializer is busy
//! until the previous message has been pushed out, so bursts queue rather
//! than teleport. Loopback messages (same machine) pay only a small local
//! cost.
//!
//! # Storage: dense per-machine, sparse per-link
//!
//! A cluster of `n` machines has `n²` ordered links, but at any instant
//! only the links that recently carried traffic or have chaos installed
//! matter. Per-*machine* state (partition/fault degrees used to gate the
//! lookups below) lives in dense `O(n)` vectors grown by amortized
//! doubling. Per-*link* state is `O(active links)`:
//!
//! * busy-until times in a hash map keyed by the packed `(src, dst)` pair
//!   (a fixed, deterministic hasher — no per-process seed), with expired
//!   entries reclaimed in bulk once the map crosses a size threshold
//!   (an entry whose serializer freed at or before `now` is
//!   indistinguishable from an absent one, so reclamation never changes
//!   a verdict; the DES clock is monotone, which makes the sweep safe);
//! * partition flags in a sorted set of packed unordered pairs;
//! * chaos profiles in a sorted map of packed ordered pairs;
//! * Gilbert–Elliott "bad state" bits as a sorted set of the links
//!   currently bad (absent ⇔ good, exactly like the dense `false`).
//!
//! At 5,000 machines the previous dense `stride × stride` matrices held
//! ~67M entries *per matrix* (see [`Network::dense_equivalent_bytes`]);
//! the sparse layout holds one entry per active link and is byte-for-byte
//! indistinguishable in behavior — delivery times, RNG draw order, and
//! counters are all unchanged.
//!
//! # Fault injection
//!
//! A [`FaultProfile`] installed on a directed link (or as the network-wide
//! default) adds probabilistic loss, Gilbert–Elliott loss bursts, delivery
//! jitter (reordering) and duplication. All draws come
//! from a dedicated chaos RNG stream and happen **only** for sends covered
//! by a profile, so runs without chaos consume no randomness and stay
//! bit-identical to pre-chaos builds.
//!
//! # Counter semantics
//!
//! * [`Network::messages_sent`] / [`Network::bytes_sent`] count all traffic
//!   **offered** to the network, delivered or not.
//! * [`Network::messages_dropped`] / [`Network::bytes_dropped`] count the
//!   offered traffic that was **lost** (partition or chaos);
//!   [`Network::chaos_dropped`] is the chaos-only portion.
//! * Delivered traffic is therefore `sent - dropped`
//!   ([`Network::messages_delivered`] / [`Network::bytes_delivered`]).
//! * A duplicated message counts once in `messages_sent` and once in
//!   [`Network::messages_duplicated`]; the extra copy is bookkept by the
//!   receiver, not here.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use sps_sim::{SimDuration, SimRng, SimTime};

use crate::chaos::FaultProfile;
use crate::machine::MachineId;

/// Configuration for [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// One-way propagation latency between distinct machines.
    pub latency: SimDuration,
    /// Link bandwidth in bytes per second (1 Gbps LAN by default).
    pub bandwidth_bytes_per_sec: f64,
    /// Delivery cost for loopback (same-machine) messages.
    pub loopback_latency: SimDuration,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            // A switched 1 Gbps LAN, as in the paper's testbed.
            latency: SimDuration::from_micros(150),
            bandwidth_bytes_per_sec: 125_000_000.0, // 1 Gbps
            loopback_latency: SimDuration::from_micros(2),
        }
    }
}

/// The delivery verdict for one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrives at the given instant.
    At(SimTime),
    /// The message arrives twice (chaos duplication).
    Duplicated {
        /// The original arrival.
        first: SimTime,
        /// The duplicate's arrival.
        second: SimTime,
    },
    /// The message is lost (network partition or chaos loss).
    Dropped,
}

impl Delivery {
    /// The (first) arrival instant, or `None` if the message was dropped.
    pub fn time(self) -> Option<SimTime> {
        match self {
            Delivery::At(t) => Some(t),
            Delivery::Duplicated { first, .. } => Some(first),
            Delivery::Dropped => None,
        }
    }

    /// The duplicate's arrival instant, if the message was duplicated.
    pub fn duplicate_time(self) -> Option<SimTime> {
        match self {
            Delivery::Duplicated { second, .. } => Some(second),
            _ => None,
        }
    }
}

/// Packs the directed link `src -> dst` into one map key.
#[inline]
fn link_key(src: MachineId, dst: MachineId) -> u64 {
    ((src.0 as u64) << 32) | dst.0 as u64
}

/// Packs the unordered pair `{a, b}` into one map key, normalized to
/// `(min, max)` so both directions agree.
#[inline]
fn pair_key(a: MachineId, b: MachineId) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    link_key(lo, hi)
}

/// A fixed multiplicative hasher for packed link keys: deterministic
/// across processes and platforms (unlike `RandomState`), so any
/// incidental dependence on map internals can never vary run to run.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinkKeyHasher(u64);

impl Hasher for LinkKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback; the link maps only ever hash u64 keys.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        // splitmix64 finalizer: full-avalanche, cheap, deterministic.
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type LinkMap<V> = HashMap<u64, V, BuildHasherDefault<LinkKeyHasher>>;

/// Sweep the busy map no earlier than this size: small runs never pay
/// for reclamation, big runs amortize it against map growth.
const BUSY_RECLAIM_MIN: usize = 1024;

/// A full-duplex switched network between machines.
///
/// ```
/// use sps_cluster::{Delivery, MachineId, Network, NetworkConfig};
/// use sps_sim::SimTime;
///
/// let mut net = Network::new(NetworkConfig::default());
/// let when = net.send(SimTime::ZERO, MachineId(0), MachineId(1), 1_000);
/// assert!(matches!(when, Delivery::At(t) if t > SimTime::ZERO));
/// ```
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    /// Per ordered (src, dst) pair with an in-flight or recent message:
    /// when the link serializer frees up. An absent entry means the link
    /// is idle (equivalently: freed at `SimTime::ZERO`).
    link_busy: LinkMap<SimTime>,
    /// Sweep `link_busy` for expired entries once it reaches this size;
    /// doubles with the surviving population so reclamation stays O(1)
    /// amortized per send.
    busy_reclaim_at: usize,
    /// Unordered pairs (packed `(min, max)` keys) currently partitioned.
    partitioned: BTreeSet<u64>,
    /// Ordered pairs (packed keys) with an installed chaos fault profile.
    faults: BTreeMap<u64, FaultProfile>,
    /// Ordered pairs currently in the Gilbert–Elliott bad state. Absent
    /// means good, so links never touched by a burst draw cost nothing.
    burst_bad: BTreeSet<u64>,
    /// Dense per-machine layer: how many active partitions touch each
    /// machine. Lets the send path skip the pair lookup unless *both*
    /// endpoints are involved in some partition.
    partition_degree: Vec<u32>,
    /// Dense per-machine layer: how many per-link profiles have this
    /// machine as the source. Skips the profile lookup for machines that
    /// only the default profile (if any) covers.
    fault_out_degree: Vec<u32>,
    /// Profile applied to links without a per-link profile.
    default_faults: Option<FaultProfile>,
    /// Dedicated RNG stream for chaos draws; consumed only for sends that
    /// an active profile covers.
    chaos_rng: SimRng,
    messages_sent: u64,
    messages_dropped: u64,
    chaos_dropped: u64,
    messages_duplicated: u64,
    bytes_sent: u64,
    bytes_dropped: u64,
}

impl Network {
    /// Creates a network with the given configuration.
    pub fn new(config: NetworkConfig) -> Self {
        assert!(
            config.bandwidth_bytes_per_sec > 0.0 && config.bandwidth_bytes_per_sec.is_finite(),
            "bandwidth must be positive"
        );
        Network {
            config,
            link_busy: LinkMap::default(),
            busy_reclaim_at: BUSY_RECLAIM_MIN,
            partitioned: BTreeSet::new(),
            faults: BTreeMap::new(),
            burst_bad: BTreeSet::new(),
            partition_degree: Vec::new(),
            fault_out_degree: Vec::new(),
            default_faults: None,
            chaos_rng: SimRng::seed_from(0),
            messages_sent: 0,
            messages_dropped: 0,
            chaos_dropped: 0,
            messages_duplicated: 0,
            bytes_sent: 0,
            bytes_dropped: 0,
        }
    }

    /// Sends `bytes` from `src` to `dst` at `now`; returns the delivery
    /// verdict. The caller schedules the actual delivery event(s) — both of
    /// them for [`Delivery::Duplicated`].
    pub fn send(&mut self, now: SimTime, src: MachineId, dst: MachineId, bytes: u64) -> Delivery {
        // Offered-traffic counters always move together (see module docs).
        self.messages_sent += 1;
        self.bytes_sent += bytes;
        self.reclaim_expired(now);
        if !self.partitioned.is_empty()
            && self.degree(&self.partition_degree, src) > 0
            && self.degree(&self.partition_degree, dst) > 0
            && self.partitioned.contains(&pair_key(src, dst))
        {
            self.messages_dropped += 1;
            self.bytes_dropped += bytes;
            return Delivery::Dropped;
        }
        // Loopback never traverses a faulty link, and most runs install no
        // profiles at all — skip the per-send lookup in both cases.
        let profile = if src == dst || (self.faults.is_empty() && self.default_faults.is_none()) {
            None
        } else {
            let per_link = if self.degree(&self.fault_out_degree, src) > 0 {
                self.faults.get(&link_key(src, dst)).copied()
            } else {
                None
            };
            per_link.or(self.default_faults)
        };
        if let Some(p) = profile {
            if self.chaos_loses(src, dst, &p) {
                self.messages_dropped += 1;
                self.chaos_dropped += 1;
                self.bytes_dropped += bytes;
                return Delivery::Dropped;
            }
        }
        if src == dst {
            return Delivery::At(now + self.config.loopback_latency);
        }
        let ser = SimDuration::from_secs_f64(bytes as f64 / self.config.bandwidth_bytes_per_sec);
        let latency = self.config.latency;
        let busy = self
            .link_busy
            .entry(link_key(src, dst))
            .or_insert(SimTime::ZERO);
        let start = if *busy > now { *busy } else { now };
        let done_serializing = start + ser;
        *busy = done_serializing;
        let mut arrival = done_serializing + latency;
        if let Some(p) = profile {
            if p.jitter > SimDuration::ZERO {
                arrival +=
                    SimDuration::from_secs_f64(self.chaos_rng.uniform(0.0, p.jitter.as_secs_f64()));
            }
            if p.duplicate_prob > 0.0 && self.chaos_rng.chance(p.duplicate_prob) {
                self.messages_duplicated += 1;
                // The duplicate trails the original by one propagation delay.
                return Delivery::Duplicated {
                    first: arrival,
                    second: arrival + latency,
                };
            }
        }
        Delivery::At(arrival)
    }

    /// Reads a dense per-machine degree without growing the vector:
    /// machines beyond the written range have degree zero.
    #[inline]
    fn degree(&self, v: &[u32], m: MachineId) -> u32 {
        v.get(m.0 as usize).copied().unwrap_or(0)
    }

    /// Drops busy-until entries whose serializer freed at or before `now`
    /// once the map is large enough to be worth sweeping. Such entries are
    /// semantically identical to absent ones (`start = max(busy, now)`), so
    /// this never changes a delivery verdict; the DES clock never moves
    /// backwards, so no later send can observe the reclaimed state.
    fn reclaim_expired(&mut self, now: SimTime) {
        if self.link_busy.len() < self.busy_reclaim_at {
            return;
        }
        self.link_busy.retain(|_, &mut free_at| free_at > now);
        self.busy_reclaim_at = (self.link_busy.len() * 2).max(BUSY_RECLAIM_MIN);
    }

    /// Grows a dense per-machine vector to cover `m`, doubling capacity so
    /// repeated one-id growth is O(1) amortized (no per-id recopy storms).
    fn ensure_machine(v: &mut Vec<u32>, m: MachineId) {
        let need = m.0 as usize + 1;
        if need > v.len() {
            v.resize(need.next_power_of_two(), 0);
        }
    }

    /// Runs the loss draws for one covered send: Gilbert–Elliott chain
    /// first (state re-drawn per message), then independent loss.
    fn chaos_loses(&mut self, src: MachineId, dst: MachineId, p: &FaultProfile) -> bool {
        if let Some(b) = &p.burst {
            let key = link_key(src, dst);
            let bad_now = if self.burst_bad.contains(&key) {
                !self.chaos_rng.chance(b.bad_to_good)
            } else {
                self.chaos_rng.chance(b.good_to_bad)
            };
            if bad_now {
                self.burst_bad.insert(key);
            } else {
                self.burst_bad.remove(&key);
            }
            if bad_now && self.chaos_rng.chance(b.bad_loss_prob) {
                return true;
            }
        }
        p.loss_prob > 0.0 && self.chaos_rng.chance(p.loss_prob)
    }

    /// Reseeds the chaos RNG stream. Call before installing any profiles so
    /// campaigns are reproducible per simulation seed.
    pub fn reseed_chaos(&mut self, seed: u64) {
        self.chaos_rng = SimRng::seed_from(seed);
    }

    /// Installs `profile` on the directed link `src -> dst` only. Install
    /// both directions for a symmetric fault; a single direction with
    /// [`FaultProfile::blackhole`] models a one-way partition.
    pub fn set_link_faults(&mut self, src: MachineId, dst: MachineId, profile: FaultProfile) {
        profile.validate();
        Self::ensure_machine(&mut self.fault_out_degree, src);
        if self.faults.insert(link_key(src, dst), profile).is_none() {
            self.fault_out_degree[src.0 as usize] += 1;
        }
    }

    /// Removes any profile from the directed link `src -> dst` and resets
    /// its burst state.
    pub fn clear_link_faults(&mut self, src: MachineId, dst: MachineId) {
        let key = link_key(src, dst);
        if self.faults.remove(&key).is_some() {
            self.fault_out_degree[src.0 as usize] -= 1;
        }
        self.burst_bad.remove(&key);
    }

    /// Sets (or with `None` clears) the profile applied to every inter-machine
    /// link that has no per-link profile. Clearing resets all burst state on
    /// links without their own profile.
    pub fn set_default_faults(&mut self, profile: Option<FaultProfile>) {
        if let Some(p) = &profile {
            p.validate();
        }
        if profile.is_none() {
            let faults = &self.faults;
            self.burst_bad.retain(|key| faults.contains_key(key));
        }
        self.default_faults = profile;
    }

    /// The profile covering the directed link `src -> dst`, if any.
    pub fn profile_for(&self, src: MachineId, dst: MachineId) -> Option<FaultProfile> {
        self.faults
            .get(&link_key(src, dst))
            .copied()
            .or(self.default_faults)
    }

    /// Removes all per-link and default fault profiles and burst state.
    /// Partitions are untouched (they are topology, not chaos).
    pub fn clear_all_faults(&mut self) {
        self.faults.clear();
        self.fault_out_degree.fill(0);
        self.default_faults = None;
        self.burst_bad.clear();
    }

    /// Cuts (or heals) the link between two machines, in both directions.
    pub fn set_partitioned(&mut self, a: MachineId, b: MachineId, partitioned: bool) {
        Self::ensure_machine(&mut self.partition_degree, a);
        Self::ensure_machine(&mut self.partition_degree, b);
        let key = pair_key(a, b);
        let changed = if partitioned {
            self.partitioned.insert(key)
        } else {
            self.partitioned.remove(&key)
        };
        if changed {
            let delta: i64 = if partitioned { 1 } else { -1 };
            for m in [a.0 as usize, b.0 as usize] {
                self.partition_degree[m] = (self.partition_degree[m] as i64 + delta) as u32;
                if a == b {
                    break; // a self-partition touches one machine once
                }
            }
        }
    }

    /// `true` if messages between `a` and `b` are currently dropped.
    pub fn is_partitioned(&self, a: MachineId, b: MachineId) -> bool {
        self.partitioned.contains(&pair_key(a, b))
    }

    /// Number of links currently tracked by the busy map (sent recently
    /// and not yet reclaimed) — the "active" in O(active links).
    pub fn active_busy_links(&self) -> usize {
        self.link_busy.len()
    }

    /// Lower-bound payload bytes held by the sparse per-link structures
    /// (keys and values only; excludes map/node overhead).
    pub fn sparse_state_bytes(&self) -> u64 {
        let busy = self.link_busy.len() * (size_of::<u64>() + size_of::<SimTime>());
        let parts = self.partitioned.len() * size_of::<u64>();
        let faults = self.faults.len() * (size_of::<u64>() + size_of::<FaultProfile>());
        let bursts = self.burst_bad.len() * size_of::<u64>();
        let degrees = (self.partition_degree.len() + self.fault_out_degree.len()) * 4;
        (busy + parts + faults + bursts + degrees) as u64
    }

    /// Bytes the retired dense representation would spend on a cluster of
    /// `machines` machines: four row-major `stride × stride` matrices
    /// (busy-until, partition flags, fault profiles, burst bits) with the
    /// stride rounded up to a power of two.
    pub fn dense_equivalent_bytes(machines: usize) -> u64 {
        let stride = machines.next_power_of_two() as u64;
        let per_link = size_of::<SimTime>()
            + size_of::<bool>()
            + size_of::<Option<FaultProfile>>()
            + size_of::<bool>();
        stride * stride * per_link as u64
    }

    /// Total messages offered to the network (delivered or not).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Messages lost to partitions or chaos faults.
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// Messages lost to chaos faults alone (subset of
    /// [`Network::messages_dropped`]).
    pub fn chaos_dropped(&self) -> u64 {
        self.chaos_dropped
    }

    /// Messages that arrived twice due to chaos duplication.
    pub fn messages_duplicated(&self) -> u64 {
        self.messages_duplicated
    }

    /// Messages actually delivered (`sent - dropped`).
    pub fn messages_delivered(&self) -> u64 {
        self.messages_sent - self.messages_dropped
    }

    /// Total payload bytes offered to the network (delivered or not).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Payload bytes lost to partitions or chaos faults.
    pub fn bytes_dropped(&self) -> u64 {
        self.bytes_dropped
    }

    /// Payload bytes actually delivered (`sent - dropped`).
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_sent - self.bytes_dropped
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::BurstLoss;

    fn net() -> Network {
        Network::new(NetworkConfig {
            latency: SimDuration::from_micros(100),
            bandwidth_bytes_per_sec: 1_000_000.0, // 1 MB/s for easy numbers
            loopback_latency: SimDuration::from_micros(1),
        })
    }

    #[test]
    fn latency_plus_serialization() {
        let mut n = net();
        // 1000 bytes at 1 MB/s = 1 ms serialization + 0.1 ms latency.
        let d = n.send(SimTime::ZERO, MachineId(0), MachineId(1), 1_000);
        assert_eq!(d, Delivery::At(SimTime::from_micros(1_100)));
    }

    #[test]
    fn bursts_queue_on_the_link() {
        let mut n = net();
        let first = n.send(SimTime::ZERO, MachineId(0), MachineId(1), 1_000);
        let second = n.send(SimTime::ZERO, MachineId(0), MachineId(1), 1_000);
        assert_eq!(first, Delivery::At(SimTime::from_micros(1_100)));
        // Second message waits for the first to serialize.
        assert_eq!(second, Delivery::At(SimTime::from_micros(2_100)));
    }

    #[test]
    fn distinct_links_are_independent() {
        let mut n = net();
        n.send(SimTime::ZERO, MachineId(0), MachineId(1), 1_000_000);
        let other = n.send(SimTime::ZERO, MachineId(0), MachineId(2), 1_000);
        assert_eq!(other, Delivery::At(SimTime::from_micros(1_100)));
    }

    #[test]
    fn reverse_direction_is_independent() {
        let mut n = net();
        n.send(SimTime::ZERO, MachineId(0), MachineId(1), 1_000_000);
        let reverse = n.send(SimTime::ZERO, MachineId(1), MachineId(0), 1_000);
        assert_eq!(reverse, Delivery::At(SimTime::from_micros(1_100)));
    }

    #[test]
    fn loopback_is_cheap_and_unqueued() {
        let mut n = net();
        let a = n.send(SimTime::ZERO, MachineId(3), MachineId(3), 1_000_000);
        let b = n.send(SimTime::ZERO, MachineId(3), MachineId(3), 1_000_000);
        assert_eq!(a, Delivery::At(SimTime::from_micros(1)));
        assert_eq!(b, Delivery::At(SimTime::from_micros(1)));
    }

    #[test]
    fn partitions_drop_both_directions() {
        let mut n = net();
        n.set_partitioned(MachineId(0), MachineId(1), true);
        assert_eq!(
            n.send(SimTime::ZERO, MachineId(0), MachineId(1), 10),
            Delivery::Dropped
        );
        assert_eq!(
            n.send(SimTime::ZERO, MachineId(1), MachineId(0), 10),
            Delivery::Dropped
        );
        n.set_partitioned(MachineId(1), MachineId(0), false);
        assert!(matches!(
            n.send(SimTime::ZERO, MachineId(0), MachineId(1), 10),
            Delivery::At(_)
        ));
        assert_eq!(n.messages_dropped(), 2);
    }

    #[test]
    fn counters_use_offered_semantics() {
        let mut n = net();
        n.send(SimTime::ZERO, MachineId(0), MachineId(1), 100);
        n.send(SimTime::ZERO, MachineId(0), MachineId(1), 200);
        assert_eq!(n.messages_sent(), 2);
        assert_eq!(n.bytes_sent(), 300);
        // Partitioned traffic still counts as offered, and the loss shows
        // up symmetrically in both dropped counters.
        n.set_partitioned(MachineId(0), MachineId(1), true);
        n.send(SimTime::ZERO, MachineId(0), MachineId(1), 400);
        assert_eq!(n.messages_sent(), 3);
        assert_eq!(n.bytes_sent(), 700);
        assert_eq!(n.messages_dropped(), 1);
        assert_eq!(n.bytes_dropped(), 400);
        assert_eq!(n.messages_delivered(), 2);
        assert_eq!(n.bytes_delivered(), 300);
    }

    #[test]
    fn idle_link_does_not_backdate() {
        let mut n = net();
        n.send(SimTime::ZERO, MachineId(0), MachineId(1), 1_000);
        // Long after the link drained, delivery is measured from `now`.
        let late = n.send(SimTime::from_secs(1), MachineId(0), MachineId(1), 1_000);
        assert_eq!(
            late,
            Delivery::At(SimTime::from_secs(1) + SimDuration::from_micros(1_100))
        );
    }

    #[test]
    fn partition_round_trip_is_symmetric() {
        // Cut with (a, b), heal with (b, a); cut twice, heal once — the
        // unordered-pair normalization must make all of these agree.
        let mut n = net();
        let (a, b) = (MachineId(4), MachineId(2));
        assert!(!n.is_partitioned(a, b));
        n.set_partitioned(a, b, true);
        n.set_partitioned(a, b, true); // idempotent cut
        assert!(n.is_partitioned(a, b));
        assert!(n.is_partitioned(b, a));
        n.set_partitioned(b, a, false); // heal via the swapped pair
        assert!(!n.is_partitioned(a, b));
        assert!(!n.is_partitioned(b, a));
        assert!(matches!(n.send(SimTime::ZERO, a, b, 10), Delivery::At(_)));
        n.set_partitioned(b, a, false); // idempotent heal
        assert!(!n.is_partitioned(a, b));
    }

    #[test]
    fn fifo_serialization_under_contention() {
        // Back-to-back sends on one ordered link serialize strictly FIFO:
        // each message starts where the previous one finished, regardless
        // of message size ordering.
        let mut n = net();
        let sizes = [5_000u64, 1_000, 3_000, 500];
        let mut expected_done = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        for &bytes in &sizes {
            expected_done += SimDuration::from_micros(bytes); // 1 MB/s
            let d = n.send(SimTime::ZERO, MachineId(0), MachineId(1), bytes);
            let arrival = d.time().unwrap();
            assert_eq!(arrival, expected_done + SimDuration::from_micros(100));
            assert!(arrival > last_arrival, "FIFO order preserved");
            last_arrival = arrival;
        }
        // A later send on the still-busy link queues behind the backlog...
        let mid = n.send(
            SimTime::from_micros(2_000),
            MachineId(0),
            MachineId(1),
            1_000,
        );
        assert_eq!(
            mid.time().unwrap(),
            expected_done + SimDuration::from_micros(1_000 + 100)
        );
        // ...while the reverse direction is idle and unaffected.
        let rev = n.send(
            SimTime::from_micros(2_000),
            MachineId(1),
            MachineId(0),
            1_000,
        );
        assert_eq!(
            rev.time().unwrap(),
            SimTime::from_micros(2_000 + 1_000 + 100)
        );
    }

    #[test]
    fn no_faults_means_no_rng_draws() {
        // Chaos must be pay-for-play: with no profiles installed the RNG is
        // untouched, so pre-chaos runs replay bit-identically.
        let mut a = net();
        let mut b = net();
        b.reseed_chaos(12345);
        for i in 0..50 {
            let da = a.send(SimTime::from_millis(i), MachineId(0), MachineId(1), 100 + i);
            let db = b.send(SimTime::from_millis(i), MachineId(0), MachineId(1), 100 + i);
            assert_eq!(da, db);
        }
        assert_eq!(a.chaos_dropped(), 0);
        assert_eq!(a.messages_duplicated(), 0);
    }

    #[test]
    fn blackhole_link_drops_one_direction_only() {
        let mut n = net();
        n.set_link_faults(MachineId(0), MachineId(1), FaultProfile::blackhole());
        assert_eq!(
            n.send(SimTime::ZERO, MachineId(0), MachineId(1), 10),
            Delivery::Dropped
        );
        assert!(matches!(
            n.send(SimTime::ZERO, MachineId(1), MachineId(0), 10),
            Delivery::At(_)
        ));
        assert_eq!(n.chaos_dropped(), 1);
        assert_eq!(n.messages_dropped(), 1);
        n.clear_link_faults(MachineId(0), MachineId(1));
        assert!(matches!(
            n.send(SimTime::ZERO, MachineId(0), MachineId(1), 10),
            Delivery::At(_)
        ));
    }

    #[test]
    fn default_faults_cover_all_links_until_cleared() {
        let mut n = net();
        n.reseed_chaos(7);
        n.set_default_faults(Some(FaultProfile::loss(1.0)));
        assert_eq!(
            n.send(SimTime::ZERO, MachineId(2), MachineId(9), 10),
            Delivery::Dropped
        );
        // Loopback is never subject to chaos.
        assert!(matches!(
            n.send(SimTime::ZERO, MachineId(2), MachineId(2), 10),
            Delivery::At(_)
        ));
        n.set_default_faults(None);
        assert!(matches!(
            n.send(SimTime::ZERO, MachineId(2), MachineId(9), 10),
            Delivery::At(_)
        ));
    }

    #[test]
    fn per_link_profile_overrides_default() {
        let mut n = net();
        n.set_default_faults(Some(FaultProfile::loss(1.0)));
        n.set_link_faults(MachineId(0), MachineId(1), FaultProfile::default());
        assert!(matches!(
            n.send(SimTime::ZERO, MachineId(0), MachineId(1), 10),
            Delivery::At(_)
        ));
        assert_eq!(
            n.send(SimTime::ZERO, MachineId(0), MachineId(2), 10),
            Delivery::Dropped
        );
    }

    #[test]
    fn loss_rate_is_approximately_honoured() {
        let mut n = net();
        n.reseed_chaos(42);
        n.set_default_faults(Some(FaultProfile::loss(0.1)));
        let total = 20_000u64;
        for i in 0..total {
            n.send(SimTime::from_millis(i), MachineId(0), MachineId(1), 10);
        }
        let rate = n.chaos_dropped() as f64 / total as f64;
        assert!((rate - 0.1).abs() < 0.01, "observed loss rate {rate}");
    }

    #[test]
    fn burst_loss_clusters_drops() {
        let mut n = net();
        n.reseed_chaos(99);
        n.set_default_faults(Some(FaultProfile::default().with_burst(BurstLoss {
            good_to_bad: 0.02,
            bad_to_good: 0.2,
            bad_loss_prob: 1.0,
        })));
        let total = 20_000u64;
        let mut outcomes = Vec::with_capacity(total as usize);
        for i in 0..total {
            let d = n.send(SimTime::from_millis(i), MachineId(0), MachineId(1), 10);
            outcomes.push(d == Delivery::Dropped);
        }
        let drops = outcomes.iter().filter(|&&d| d).count() as f64;
        // Stationary bad-state share is 0.02 / (0.02 + 0.2) ~ 9 %.
        let rate = drops / total as f64;
        assert!((0.05..0.15).contains(&rate), "burst loss rate {rate}");
        // Burstiness: drops are followed by drops far more often than the
        // marginal rate would predict.
        let mut after_drop = 0.0;
        let mut after_drop_dropped = 0.0;
        for w in outcomes.windows(2) {
            if w[0] {
                after_drop += 1.0;
                if w[1] {
                    after_drop_dropped += 1.0;
                }
            }
        }
        let conditional = after_drop_dropped / after_drop;
        assert!(
            conditional > 2.0 * rate,
            "drops should cluster: P(drop|drop) = {conditional:.3}, P(drop) = {rate:.3}"
        );
    }

    #[test]
    fn jitter_can_reorder_messages() {
        let mut n = net();
        n.reseed_chaos(5);
        n.set_default_faults(Some(
            FaultProfile::default().with_jitter(SimDuration::from_micros(5_000)),
        ));
        let mut arrivals = Vec::new();
        for i in 0..40u64 {
            let d = n.send(SimTime::ZERO, MachineId(0), MachineId(1), 100 + i);
            arrivals.push(d.time().unwrap());
        }
        assert!(
            arrivals.windows(2).any(|w| w[1] < w[0]),
            "5 ms jitter on ~0.1 ms spacing must reorder something"
        );
    }

    #[test]
    fn duplication_yields_two_arrivals() {
        let mut n = net();
        n.reseed_chaos(11);
        n.set_default_faults(Some(FaultProfile::default().with_duplication(1.0)));
        let d = n.send(SimTime::ZERO, MachineId(0), MachineId(1), 1_000);
        match d {
            Delivery::Duplicated { first, second } => {
                assert_eq!(first, SimTime::from_micros(1_100));
                assert_eq!(second, SimTime::from_micros(1_200));
                assert_eq!(d.time(), Some(first));
                assert_eq!(d.duplicate_time(), Some(second));
            }
            other => panic!("expected duplication, got {other:?}"),
        }
        assert_eq!(n.messages_duplicated(), 1);
        assert_eq!(n.messages_dropped(), 0);
    }

    #[test]
    fn chaos_is_reproducible_per_seed() {
        let run = |seed: u64| {
            let mut n = net();
            n.reseed_chaos(seed);
            n.set_default_faults(Some(FaultProfile::loss(0.2).with_duplication(0.1)));
            (0..200u64)
                .map(|i| n.send(SimTime::from_millis(i), MachineId(0), MachineId(1), 64))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1234), run(1234));
        assert_ne!(run(1234), run(5678));
    }

    #[test]
    fn busy_entries_expire_and_are_reclaimed() {
        // Touch well over the reclaim threshold at t=0. The mid-spray sweep
        // (at 1,024 entries) keeps everything — nothing has expired yet —
        // and doubles the threshold to 2,048.
        let mut n = net();
        let side = 40u32; // 40 x 39 = 1,560 ordered links
        for s in 0..side {
            for d in 0..side {
                if s != d {
                    n.send(SimTime::ZERO, MachineId(s), MachineId(d), 100);
                }
            }
        }
        assert_eq!(n.active_busy_links(), 1_560);
        // Long after those drain, fresh traffic pushes the map back across
        // the threshold; that sweep sheds every expired t=0 entry while
        // keeping the in-flight ones.
        let later = SimTime::from_secs(3600);
        for i in 0..600u32 {
            n.send(later, MachineId(1_000 + i), MachineId(2_000 + i), 100);
        }
        assert!(
            n.active_busy_links() < 700,
            "stale busy entries survive the sweep: {}",
            n.active_busy_links()
        );
        // Delivery math is unchanged by reclamation: the (0,1) link's
        // expired entry and an absent entry behave identically.
        let d = n.send(later, MachineId(0), MachineId(1), 1_000);
        assert_eq!(d, Delivery::At(later + SimDuration::from_micros(1_100)));
    }

    #[test]
    fn partition_degree_gates_are_consistent() {
        // A partition on {0,1} must not disturb traffic where only one
        // endpoint has partition involvement.
        let mut n = net();
        n.set_partitioned(MachineId(0), MachineId(1), true);
        assert!(matches!(
            n.send(SimTime::ZERO, MachineId(0), MachineId(2), 10),
            Delivery::At(_)
        ));
        assert!(matches!(
            n.send(SimTime::ZERO, MachineId(2), MachineId(1), 10),
            Delivery::At(_)
        ));
        // Heal and re-cut through the reversed pair; degrees stay balanced.
        n.set_partitioned(MachineId(1), MachineId(0), false);
        n.set_partitioned(MachineId(1), MachineId(0), true);
        assert_eq!(
            n.send(SimTime::ZERO, MachineId(0), MachineId(1), 10),
            Delivery::Dropped
        );
        n.set_partitioned(MachineId(0), MachineId(1), false);
        assert!(matches!(
            n.send(SimTime::ZERO, MachineId(0), MachineId(1), 10),
            Delivery::At(_)
        ));
    }

    #[test]
    fn sparse_footprint_beats_dense_at_scale() {
        // 5,000 machines: dense needs four 8192² matrices; sparse holds
        // only what traffic and chaos actually touch.
        let dense = Network::dense_equivalent_bytes(5_000);
        assert!(dense > 4_000_000_000, "dense 5k-machine bytes: {dense}");
        let mut n = net();
        // A ring of 5,000 machines' worth of traffic: 5,000 active links.
        for i in 0..5_000u32 {
            n.send(SimTime::ZERO, MachineId(i), MachineId((i + 1) % 5_000), 100);
        }
        let sparse = n.sparse_state_bytes();
        assert!(
            sparse * 10 < dense,
            "sparse ({sparse} B) should be well under 10% of dense ({dense} B)"
        );
    }
}
