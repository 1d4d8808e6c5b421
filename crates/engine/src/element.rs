//! Data elements and stream identities.
//!
//! Every element belongs to a *logical stream* — the output port of a
//! logical PE (or a source), independent of which physical replica produced
//! it — and carries a sequence number within that stream. Replicas of a
//! deterministic PE assign identical sequence numbers to identical outputs,
//! which is what makes duplicate elimination at downstream input queues
//! possible (§III of the paper: "Downstream subjobs need to eliminate
//! duplicates").

use std::fmt;

use sps_sim::SimTime;

/// Identifies a logical PE within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeId(pub u32);

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pe{}", self.0)
    }
}

/// Identifies a logical output stream: one output port of one logical PE or
/// source, shared by all physical replicas of that PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u32);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Sequence numbers within a stream start here; an "acked through" value of
/// `FIRST_SEQ - 1 == 0` means nothing has been acknowledged.
pub const FIRST_SEQ: u64 = 1;

/// One data element flowing through the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataElement {
    /// The logical stream this element belongs to.
    pub stream: StreamId,
    /// Sequence number within the stream (starting at [`FIRST_SEQ`]).
    pub seq: u64,
    /// When the element (or the source element it derives from) entered the
    /// system; end-to-end delay is measured against this.
    pub created_at: SimTime,
    /// Application key (e.g., a stock symbol or camera id).
    pub key: u64,
    /// Application value (e.g., a price or measurement).
    pub value: f64,
    /// Serialized size on the wire.
    pub size_bytes: u32,
}

/// Default on-the-wire size of one element.
pub const DEFAULT_ELEMENT_BYTES: u32 = 256;

/// The payload of an element before an output queue stamps its stream and
/// sequence number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Payload {
    /// Application key.
    pub key: u64,
    /// Application value.
    pub value: f64,
    /// Serialized size on the wire.
    pub size_bytes: u32,
}

impl Payload {
    /// Creates a payload with the default wire size.
    pub fn new(key: u64, value: f64) -> Self {
        Payload {
            key,
            value,
            size_bytes: DEFAULT_ELEMENT_BYTES,
        }
    }
}

impl From<&DataElement> for Payload {
    /// Reuses an input element's application content as an output payload.
    fn from(e: &DataElement) -> Self {
        Payload {
            key: e.key,
            value: e.value,
            size_bytes: e.size_bytes,
        }
    }
}

/// `true` if `run` is one stream of consecutive sequence numbers: the shape
/// a [`DataBatch`](crate::DataBatch) carries and every run operation takes.
pub(crate) fn is_contiguous_run(run: &[DataElement]) -> bool {
    run.windows(2)
        .all(|w| w[1].stream == w[0].stream && w[1].seq == w[0].seq + 1)
}

/// Appends `run` to `out`. A run of one — every run at batch size 1 — is
/// a push rather than a `memcpy` call.
#[inline]
pub(crate) fn append_run(out: &mut Vec<DataElement>, run: &[DataElement]) {
    match run {
        [elem] => out.push(*elem),
        _ => out.extend_from_slice(run),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_defaults_and_conversion() {
        let p = Payload::new(7, 1.5);
        assert_eq!(p.size_bytes, DEFAULT_ELEMENT_BYTES);
        let e = DataElement {
            stream: StreamId(1),
            seq: 3,
            created_at: SimTime::from_millis(2),
            key: 9,
            value: 4.0,
            size_bytes: 100,
        };
        let back = Payload::from(&e);
        assert_eq!(back.key, 9);
        assert_eq!(back.value, 4.0);
        assert_eq!(back.size_bytes, 100);
    }

    #[test]
    fn ids_display_compactly() {
        assert_eq!(PeId(3).to_string(), "pe3");
        assert_eq!(StreamId(4).to_string(), "s4");
    }
}
