//! Operators: the per-element processing logic inside a PE.
//!
//! An [`Operator`] consumes one input element at a time and emits zero or
//! more output payloads per port; the runtime hands it a whole run of them
//! per call ([`Operator::process_run`]), which by default is that
//! per-element step in a loop. Operators must be *deterministic*: two
//! replicas fed the same input sequence must produce the same outputs and
//! reach the same internal state — the property both active standby and
//! checkpoint-based recovery rely on. Internal state is snapshotted as an
//! [`OperatorState`] (a small vector of words, *not* the full memory image,
//! exactly as the paper's `checkpoint()` interface extracts "variables that
//! affect the output").
//!
//! Because replicas and recovered copies must be able to construct identical
//! fresh operators, operators are described by a buildable [`OperatorSpec`].

use std::fmt;

use crate::element::{DataElement, Payload};

/// A snapshot of an operator's internal state.
///
/// The words are opaque to everything but the operator that produced them;
/// their count contributes to checkpoint size.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OperatorState(pub Vec<f64>);

/// Output collector handed to [`Operator::process`]; `port` selects the
/// output port (chains use port 0).
///
/// Under [`Operator::process_run`] it also records which input of the run
/// each output came from: [`Emitter::end_input`] closes one input, and
/// everything emitted since the previous close is that input's.
#[derive(Debug, Default)]
pub struct Emitter {
    items: Vec<(usize, Payload)>,
    /// `ends[i]` is `items.len()` as input `i` was closed: non-decreasing,
    /// never above `items.len()`.
    ends: Vec<u32>,
}

impl Emitter {
    /// Emits `payload` on `port`.
    pub fn emit(&mut self, port: usize, payload: Payload) {
        self.items.push((port, payload));
    }

    /// Emits on port 0 (the common single-output case).
    pub fn emit0(&mut self, payload: Payload) {
        self.emit(0, payload);
    }

    /// Closes the current input of a run: every output emitted since the
    /// previous close is attributed to it. An [`Operator::process_run`]
    /// calls this once after each element of its run, in order.
    pub fn end_input(&mut self) {
        self.ends.push(self.items.len() as u32);
    }

    /// Drains the collected outputs.
    pub fn take(&mut self) -> Vec<(usize, Payload)> {
        self.ends.clear();
        std::mem::take(&mut self.items)
    }

    /// Drains the collected outputs in place, keeping the buffer's capacity
    /// for reuse — the allocation-free alternative to [`Emitter::take`].
    pub fn drain(&mut self) -> std::vec::Drain<'_, (usize, Payload)> {
        self.ends.clear();
        self.items.drain(..)
    }

    /// Empties the collector, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.ends.clear();
    }

    /// The outputs of each closed input, in input order.
    pub(crate) fn per_input(&self) -> impl Iterator<Item = &[(usize, Payload)]> + '_ {
        let mut from = 0;
        self.ends.iter().map(move |&end| {
            let outputs = &self.items[from..end as usize];
            from = end as usize;
            outputs
        })
    }

    /// `true` if exactly `inputs` inputs were closed and nothing was
    /// emitted after the last close — what a run of `inputs` elements must
    /// leave behind.
    pub(crate) fn closed_exactly(&self, inputs: usize) -> bool {
        self.ends.len() == inputs && self.ends.last().map_or(0, |&e| e as usize) == self.items.len()
    }

    /// Number of outputs collected so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// The processing logic of a PE.
pub trait Operator: fmt::Debug {
    /// Processes one input element (from input port `port`), emitting
    /// outputs into `out`. Must be deterministic.
    fn process(&mut self, port: usize, input: &DataElement, out: &mut Emitter);

    /// CPU demand to process `input`, in seconds of full-speed CPU.
    fn demand_secs(&self, input: &DataElement) -> f64;

    /// Processes a run of input elements from input port `port`, oldest
    /// first, closing each with [`Emitter::end_input`]. This is the form
    /// the runtime calls. An override must leave the operator and `out`
    /// exactly as this per-element loop does — same outputs, same
    /// attribution to inputs, bit-equal state.
    fn process_run(&mut self, port: usize, run: &[DataElement], out: &mut Emitter) {
        for input in run {
            self.process(port, input, out);
            out.end_input();
        }
    }

    /// CPU demand of a whole run. An override must return this sum bit for
    /// bit: repeated addition from `0.0`, oldest first (`n * demand`
    /// rounds differently and moves every completion instant).
    fn demand_run(&self, run: &[DataElement]) -> f64 {
        run.iter()
            .fold(0.0, |sum, input| sum + self.demand_secs(input))
    }

    /// Internal-state size in element units, for checkpoint-cost accounting.
    fn state_size_elements(&self) -> u64;

    /// Snapshots the internal state.
    fn snapshot(&self) -> OperatorState;

    /// Restores a snapshot taken from an identically specified operator.
    fn restore(&mut self, state: &OperatorState);
}

/// Aggregation functions for [`OperatorSpec::WindowAggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Sum of values in the window.
    Sum,
    /// Arithmetic mean of values in the window.
    Avg,
    /// Number of elements in the window (trivially the window size).
    Count,
    /// Maximum value in the window.
    Max,
}

/// Builds fresh instances of a user-defined operator; see
/// [`OperatorSpec::Custom`].
pub trait OperatorFactory: fmt::Debug + Send + Sync {
    /// Builds a fresh operator in its initial state. Every call must return
    /// an identically-behaving operator (replicas and recovered copies are
    /// built from the same factory).
    fn build(&self) -> Box<dyn Operator>;
}

/// A buildable, cloneable description of an operator — the unit of
/// deployment for replicas and recovered copies.
#[derive(Debug, Clone)]
pub enum OperatorSpec {
    /// The paper's synthesized computation: fixed CPU demand per element,
    /// configurable selectivity and internal-state size.
    Synthetic {
        /// Outputs per input (1.0 in the paper's evaluation job).
        selectivity: f64,
        /// CPU seconds per input element.
        demand_secs: f64,
        /// Internal state size in element units (paper: 20).
        state_elements: u64,
    },
    /// Passes elements whose value is at least the threshold. Stateless.
    Filter {
        /// Minimum value that passes.
        min_value: f64,
        /// CPU seconds per input element.
        demand_secs: f64,
    },
    /// Affine transform of the value: `value * scale + offset`. Stateless.
    Map {
        /// Multiplier.
        scale: f64,
        /// Addend.
        offset: f64,
        /// CPU seconds per input element.
        demand_secs: f64,
    },
    /// Tumbling count-window aggregate over the value field.
    WindowAggregate {
        /// Window length in elements.
        window: u64,
        /// Aggregation function.
        agg: AggKind,
        /// CPU seconds per input element.
        demand_secs: f64,
    },
    /// Volume-weighted average price over tumbling windows: `value` is the
    /// price, `key` the volume.
    Vwap {
        /// Window length in elements.
        window: u64,
        /// CPU seconds per input element.
        demand_secs: f64,
    },
    /// Emits a running count of elements seen — the paper's example of a
    /// stateful PE ("a counter value for a PE counting the number of
    /// received data elements").
    Counter {
        /// CPU seconds per input element.
        demand_secs: f64,
    },
    /// Key-partitioning router: forwards each element unchanged to output
    /// port [`shard_of(key, shards)`](shard_of). The front half of a
    /// sharded operator — each output port feeds one shard PE, so millions
    /// of logical keys stable-hash onto `shards` partitions and every
    /// element of one key always visits the same shard. Stateless, so a
    /// recovered router replays identically.
    ShardRouter {
        /// Number of downstream shard PEs (= output ports).
        shards: u32,
        /// CPU seconds per routed element (hashing is cheap).
        demand_secs: f64,
    },
    /// A user-defined operator, built by a shared factory.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use sps_engine::{
    ///     DataElement, Emitter, Operator, OperatorFactory, OperatorSpec, OperatorState, Payload,
    /// };
    ///
    /// /// Doubles every value; stateless.
    /// #[derive(Debug)]
    /// struct Doubler;
    ///
    /// impl Operator for Doubler {
    ///     fn process(&mut self, _port: usize, input: &DataElement, out: &mut Emitter) {
    ///         out.emit0(Payload { value: input.value * 2.0, ..Payload::from(input) });
    ///     }
    ///     fn demand_secs(&self, _input: &DataElement) -> f64 { 1e-4 }
    ///     fn state_size_elements(&self) -> u64 { 0 }
    ///     fn snapshot(&self) -> OperatorState { OperatorState::default() }
    ///     fn restore(&mut self, _state: &OperatorState) {}
    /// }
    ///
    /// #[derive(Debug)]
    /// struct DoublerFactory;
    /// impl OperatorFactory for DoublerFactory {
    ///     fn build(&self) -> Box<dyn Operator> { Box::new(Doubler) }
    /// }
    ///
    /// let spec = OperatorSpec::Custom(Arc::new(DoublerFactory));
    /// let mut op = spec.build();
    /// ```
    Custom(std::sync::Arc<dyn OperatorFactory>),
}

impl PartialEq for OperatorSpec {
    /// Structural equality for the built-in variants; pointer identity for
    /// custom factories.
    fn eq(&self, other: &Self) -> bool {
        use OperatorSpec::*;
        match (self, other) {
            (
                Synthetic {
                    selectivity: a1,
                    demand_secs: a2,
                    state_elements: a3,
                },
                Synthetic {
                    selectivity: b1,
                    demand_secs: b2,
                    state_elements: b3,
                },
            ) => a1 == b1 && a2 == b2 && a3 == b3,
            (
                Filter {
                    min_value: a1,
                    demand_secs: a2,
                },
                Filter {
                    min_value: b1,
                    demand_secs: b2,
                },
            ) => a1 == b1 && a2 == b2,
            (
                Map {
                    scale: a1,
                    offset: a2,
                    demand_secs: a3,
                },
                Map {
                    scale: b1,
                    offset: b2,
                    demand_secs: b3,
                },
            ) => a1 == b1 && a2 == b2 && a3 == b3,
            (
                WindowAggregate {
                    window: a1,
                    agg: a2,
                    demand_secs: a3,
                },
                WindowAggregate {
                    window: b1,
                    agg: b2,
                    demand_secs: b3,
                },
            ) => a1 == b1 && a2 == b2 && a3 == b3,
            (
                Vwap {
                    window: a1,
                    demand_secs: a2,
                },
                Vwap {
                    window: b1,
                    demand_secs: b2,
                },
            ) => a1 == b1 && a2 == b2,
            (Counter { demand_secs: a }, Counter { demand_secs: b }) => a == b,
            (
                ShardRouter {
                    shards: a1,
                    demand_secs: a2,
                },
                ShardRouter {
                    shards: b1,
                    demand_secs: b2,
                },
            ) => a1 == b1 && a2 == b2,
            (Custom(a), Custom(b)) => std::sync::Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl OperatorSpec {
    /// A synthetic op with the evaluation defaults: selectivity 1, 0.3 ms of
    /// CPU per element, 20 state elements.
    pub fn synthetic_default() -> Self {
        OperatorSpec::Synthetic {
            selectivity: 1.0,
            demand_secs: 0.000_3,
            state_elements: 20,
        }
    }

    /// The name of the first parameter a run could not survive, if any: a
    /// per-element CPU demand or a selectivity that is negative or not
    /// finite (an infinite selectivity never finishes emitting, a NaN one
    /// silently emits nothing, and such a demand only panics once the
    /// machine model is asked to schedule it). Custom operators are the
    /// factory's business.
    pub(crate) fn invalid_parameter(&self) -> Option<&'static str> {
        let bad = |x: f64| !(x.is_finite() && x >= 0.0);
        let demand_secs = match *self {
            OperatorSpec::Synthetic { demand_secs, .. }
            | OperatorSpec::Filter { demand_secs, .. }
            | OperatorSpec::Map { demand_secs, .. }
            | OperatorSpec::WindowAggregate { demand_secs, .. }
            | OperatorSpec::Vwap { demand_secs, .. }
            | OperatorSpec::Counter { demand_secs }
            | OperatorSpec::ShardRouter { demand_secs, .. } => demand_secs,
            OperatorSpec::Custom(_) => return None,
        };
        match *self {
            OperatorSpec::Synthetic { selectivity, .. } if bad(selectivity) => Some("selectivity"),
            _ => bad(demand_secs).then_some("demand_secs"),
        }
    }

    /// Builds a fresh operator in its initial state.
    pub fn build(&self) -> Box<dyn Operator> {
        match *self {
            OperatorSpec::Synthetic {
                selectivity,
                demand_secs,
                state_elements,
            } => Box::new(SyntheticOp {
                selectivity,
                demand_secs,
                state_elements,
                processed: 0,
                emit_credit: 0.0,
                acc: 0.0,
            }),
            OperatorSpec::Filter {
                min_value,
                demand_secs,
            } => Box::new(FilterOp {
                min_value,
                demand_secs,
            }),
            OperatorSpec::Map {
                scale,
                offset,
                demand_secs,
            } => Box::new(MapOp {
                scale,
                offset,
                demand_secs,
            }),
            OperatorSpec::WindowAggregate {
                window,
                agg,
                demand_secs,
            } => Box::new(WindowAggregateOp {
                window: window.max(1),
                agg,
                demand_secs,
                count: 0,
                acc: initial_acc(agg),
            }),
            OperatorSpec::Vwap {
                window,
                demand_secs,
            } => Box::new(VwapOp {
                window: window.max(1),
                demand_secs,
                count: 0,
                price_volume: 0.0,
                volume: 0.0,
            }),
            OperatorSpec::Counter { demand_secs } => Box::new(CounterOp {
                demand_secs,
                count: 0,
            }),
            OperatorSpec::ShardRouter {
                shards,
                demand_secs,
            } => Box::new(ShardRouterOp {
                shards: shards.max(1),
                demand_secs,
            }),
            OperatorSpec::Custom(ref factory) => factory.build(),
        }
    }
}

/// The shard a logical key belongs to, out of `shards` partitions.
///
/// A splitmix64-style finalizer mixed down with a modulo: stable across
/// runs, platforms, and process restarts, so a key's shard assignment is
/// part of the job's deterministic contract (checkpoints taken by shard
/// `s` are only ever restored by shard `s`). The full-avalanche mix keeps
/// dense key ranges (`0..n`) spread evenly even when `shards` is a power
/// of two.
pub fn shard_of(key: u64, shards: u32) -> u32 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as u32
}

fn initial_acc(agg: AggKind) -> f64 {
    match agg {
        AggKind::Max => f64::NEG_INFINITY,
        _ => 0.0,
    }
}

/// See [`OperatorSpec::Synthetic`].
#[derive(Debug)]
struct SyntheticOp {
    selectivity: f64,
    demand_secs: f64,
    state_elements: u64,
    processed: u64,
    /// Fractional-selectivity credit, so emission is deterministic.
    emit_credit: f64,
    /// A running mix of inputs, so state verifiably affects nothing unless
    /// restored correctly.
    acc: f64,
}

impl Operator for SyntheticOp {
    fn process(&mut self, _port: usize, input: &DataElement, out: &mut Emitter) {
        self.processed += 1;
        self.acc = 0.5 * self.acc + input.value;
        self.emit_credit += self.selectivity;
        while self.emit_credit >= 1.0 {
            self.emit_credit -= 1.0;
            out.emit0(Payload {
                key: input.key,
                value: input.value,
                size_bytes: input.size_bytes,
            });
        }
    }

    fn demand_secs(&self, _input: &DataElement) -> f64 {
        self.demand_secs
    }

    fn process_run(&mut self, _port: usize, run: &[DataElement], out: &mut Emitter) {
        let (mut acc, mut credit) = (self.acc, self.emit_credit);
        for input in run {
            acc = 0.5 * acc + input.value;
            credit += self.selectivity;
            while credit >= 1.0 {
                credit -= 1.0;
                out.emit0(Payload::from(input));
            }
            out.end_input();
        }
        self.processed += run.len() as u64;
        self.acc = acc;
        self.emit_credit = credit;
    }

    fn demand_run(&self, run: &[DataElement]) -> f64 {
        run.iter().fold(0.0, |sum, _| sum + self.demand_secs)
    }

    fn state_size_elements(&self) -> u64 {
        self.state_elements
    }

    fn snapshot(&self) -> OperatorState {
        OperatorState(vec![self.processed as f64, self.emit_credit, self.acc])
    }

    fn restore(&mut self, state: &OperatorState) {
        self.processed = state.0[0] as u64;
        self.emit_credit = state.0[1];
        self.acc = state.0[2];
    }
}

/// See [`OperatorSpec::Filter`].
#[derive(Debug)]
struct FilterOp {
    min_value: f64,
    demand_secs: f64,
}

impl Operator for FilterOp {
    fn process(&mut self, _port: usize, input: &DataElement, out: &mut Emitter) {
        if input.value >= self.min_value {
            out.emit0(Payload::from(input));
        }
    }
    fn demand_secs(&self, _input: &DataElement) -> f64 {
        self.demand_secs
    }
    fn state_size_elements(&self) -> u64 {
        0
    }
    fn snapshot(&self) -> OperatorState {
        OperatorState::default()
    }
    fn restore(&mut self, _state: &OperatorState) {}
}

/// See [`OperatorSpec::Map`].
#[derive(Debug)]
struct MapOp {
    scale: f64,
    offset: f64,
    demand_secs: f64,
}

impl Operator for MapOp {
    fn process(&mut self, _port: usize, input: &DataElement, out: &mut Emitter) {
        out.emit0(Payload {
            key: input.key,
            value: input.value * self.scale + self.offset,
            size_bytes: input.size_bytes,
        });
    }
    fn demand_secs(&self, _input: &DataElement) -> f64 {
        self.demand_secs
    }
    fn state_size_elements(&self) -> u64 {
        0
    }
    fn snapshot(&self) -> OperatorState {
        OperatorState::default()
    }
    fn restore(&mut self, _state: &OperatorState) {}
}

/// See [`OperatorSpec::WindowAggregate`].
#[derive(Debug)]
struct WindowAggregateOp {
    window: u64,
    agg: AggKind,
    demand_secs: f64,
    count: u64,
    acc: f64,
}

impl Operator for WindowAggregateOp {
    fn process(&mut self, _port: usize, input: &DataElement, out: &mut Emitter) {
        self.count += 1;
        match self.agg {
            AggKind::Sum | AggKind::Avg => self.acc += input.value,
            AggKind::Count => {}
            AggKind::Max => self.acc = self.acc.max(input.value),
        }
        if self.count == self.window {
            let value = match self.agg {
                AggKind::Sum => self.acc,
                AggKind::Avg => self.acc / self.window as f64,
                AggKind::Count => self.window as f64,
                AggKind::Max => self.acc,
            };
            out.emit0(Payload {
                key: input.key,
                value,
                size_bytes: input.size_bytes,
            });
            self.count = 0;
            self.acc = initial_acc(self.agg);
        }
    }
    fn demand_secs(&self, _input: &DataElement) -> f64 {
        self.demand_secs
    }
    fn state_size_elements(&self) -> u64 {
        1
    }
    fn snapshot(&self) -> OperatorState {
        OperatorState(vec![self.count as f64, self.acc])
    }
    fn restore(&mut self, state: &OperatorState) {
        self.count = state.0[0] as u64;
        self.acc = state.0[1];
    }
}

/// See [`OperatorSpec::Vwap`].
#[derive(Debug)]
struct VwapOp {
    window: u64,
    demand_secs: f64,
    count: u64,
    price_volume: f64,
    volume: f64,
}

impl Operator for VwapOp {
    fn process(&mut self, _port: usize, input: &DataElement, out: &mut Emitter) {
        self.count += 1;
        let vol = input.key as f64;
        self.price_volume += input.value * vol;
        self.volume += vol;
        if self.count == self.window {
            let vwap = if self.volume > 0.0 {
                self.price_volume / self.volume
            } else {
                0.0
            };
            out.emit0(Payload {
                key: input.key,
                value: vwap,
                size_bytes: input.size_bytes,
            });
            self.count = 0;
            self.price_volume = 0.0;
            self.volume = 0.0;
        }
    }
    fn demand_secs(&self, _input: &DataElement) -> f64 {
        self.demand_secs
    }
    fn state_size_elements(&self) -> u64 {
        1
    }
    fn snapshot(&self) -> OperatorState {
        OperatorState(vec![self.count as f64, self.price_volume, self.volume])
    }
    fn restore(&mut self, state: &OperatorState) {
        self.count = state.0[0] as u64;
        self.price_volume = state.0[1];
        self.volume = state.0[2];
    }
}

/// See [`OperatorSpec::Counter`].
#[derive(Debug)]
struct CounterOp {
    demand_secs: f64,
    count: u64,
}

impl Operator for CounterOp {
    fn process(&mut self, _port: usize, input: &DataElement, out: &mut Emitter) {
        self.count += 1;
        out.emit0(Payload {
            key: input.key,
            value: self.count as f64,
            size_bytes: input.size_bytes,
        });
    }
    fn demand_secs(&self, _input: &DataElement) -> f64 {
        self.demand_secs
    }
    fn state_size_elements(&self) -> u64 {
        1
    }
    fn snapshot(&self) -> OperatorState {
        OperatorState(vec![self.count as f64])
    }
    fn restore(&mut self, state: &OperatorState) {
        self.count = state.0[0] as u64;
    }
}

/// See [`OperatorSpec::ShardRouter`].
#[derive(Debug)]
struct ShardRouterOp {
    shards: u32,
    demand_secs: f64,
}

impl Operator for ShardRouterOp {
    fn process(&mut self, _port: usize, input: &DataElement, out: &mut Emitter) {
        out.emit(
            shard_of(input.key, self.shards) as usize,
            Payload::from(input),
        );
    }
    fn demand_secs(&self, _input: &DataElement) -> f64 {
        self.demand_secs
    }
    fn state_size_elements(&self) -> u64 {
        0
    }
    fn snapshot(&self) -> OperatorState {
        OperatorState::default()
    }
    fn restore(&mut self, _state: &OperatorState) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::StreamId;
    use sps_sim::SimTime;

    fn elem(seq: u64, key: u64, value: f64) -> DataElement {
        DataElement {
            stream: StreamId(0),
            seq,
            created_at: SimTime::ZERO,
            key,
            value,
            size_bytes: 256,
        }
    }

    fn drive(op: &mut dyn Operator, inputs: &[(u64, f64)]) -> Vec<f64> {
        let mut out = Emitter::default();
        let mut produced = Vec::new();
        for (i, &(key, value)) in inputs.iter().enumerate() {
            op.process(0, &elem(i as u64 + 1, key, value), &mut out);
            produced.extend(out.take().into_iter().map(|(_, p)| p.value));
        }
        produced
    }

    #[test]
    fn synthetic_selectivity_one_is_identity_on_values() {
        let mut op = OperatorSpec::synthetic_default().build();
        let out = drive(op.as_mut(), &[(1, 10.0), (1, 20.0), (1, 30.0)]);
        assert_eq!(out, vec![10.0, 20.0, 30.0]);
        assert_eq!(op.state_size_elements(), 20);
    }

    #[test]
    fn synthetic_fractional_selectivity_is_deterministic() {
        let spec = OperatorSpec::Synthetic {
            selectivity: 0.5,
            demand_secs: 1e-4,
            state_elements: 5,
        };
        let mut op = spec.build();
        let inputs: Vec<(u64, f64)> = (0..10).map(|i| (1, i as f64)).collect();
        let out = drive(op.as_mut(), &inputs);
        assert_eq!(out.len(), 5, "half the inputs emit");
        // Re-running an identical fresh copy gives identical output.
        let mut op2 = spec.build();
        assert_eq!(drive(op2.as_mut(), &inputs), out);
    }

    #[test]
    fn synthetic_selectivity_two_fans_out() {
        let spec = OperatorSpec::Synthetic {
            selectivity: 2.0,
            demand_secs: 1e-4,
            state_elements: 5,
        };
        let mut op = spec.build();
        let out = drive(op.as_mut(), &[(1, 1.0)]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn filter_drops_below_threshold() {
        let mut op = OperatorSpec::Filter {
            min_value: 5.0,
            demand_secs: 1e-4,
        }
        .build();
        assert_eq!(
            drive(op.as_mut(), &[(1, 4.9), (1, 5.0), (1, 7.0)]),
            vec![5.0, 7.0]
        );
        assert_eq!(op.state_size_elements(), 0);
    }

    #[test]
    fn map_applies_affine_transform() {
        let mut op = OperatorSpec::Map {
            scale: 2.0,
            offset: 1.0,
            demand_secs: 1e-4,
        }
        .build();
        assert_eq!(drive(op.as_mut(), &[(1, 3.0)]), vec![7.0]);
    }

    #[test]
    fn window_aggregates() {
        let inputs = [(1u64, 1.0), (1, 2.0), (1, 3.0), (1, 4.0)];
        for (agg, want) in [
            (AggKind::Sum, vec![3.0, 7.0]),
            (AggKind::Avg, vec![1.5, 3.5]),
            (AggKind::Count, vec![2.0, 2.0]),
            (AggKind::Max, vec![2.0, 4.0]),
        ] {
            let mut op = OperatorSpec::WindowAggregate {
                window: 2,
                agg,
                demand_secs: 1e-4,
            }
            .build();
            assert_eq!(drive(op.as_mut(), &inputs), want, "{agg:?}");
        }
    }

    #[test]
    fn vwap_weights_by_volume() {
        let mut op = OperatorSpec::Vwap {
            window: 2,
            demand_secs: 1e-4,
        }
        .build();
        // (price 10, vol 1), (price 20, vol 3) -> (10 + 60) / 4 = 17.5
        let out = drive(op.as_mut(), &[(1, 10.0), (3, 20.0)]);
        assert_eq!(out, vec![17.5]);
    }

    #[test]
    fn counter_counts() {
        let mut op = OperatorSpec::Counter { demand_secs: 1e-4 }.build();
        assert_eq!(
            drive(op.as_mut(), &[(1, 0.0), (1, 0.0), (1, 0.0)]),
            vec![1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn snapshot_restore_round_trips_mid_window() {
        let spec = OperatorSpec::WindowAggregate {
            window: 3,
            agg: AggKind::Sum,
            demand_secs: 1e-4,
        };
        let mut a = spec.build();
        drive(a.as_mut(), &[(1, 1.0), (1, 2.0)]);
        let snap = a.snapshot();

        let mut b = spec.build();
        b.restore(&snap);
        // Third element closes the window with the restored partial sum.
        let out = drive(b.as_mut(), &[(1, 4.0)]);
        assert_eq!(out, vec![7.0]);
    }

    #[test]
    fn restored_counter_continues() {
        let spec = OperatorSpec::Counter { demand_secs: 1e-4 };
        let mut a = spec.build();
        drive(a.as_mut(), &[(1, 0.0), (1, 0.0)]);
        let mut b = spec.build();
        b.restore(&a.snapshot());
        assert_eq!(drive(b.as_mut(), &[(1, 0.0)]), vec![3.0]);
    }

    #[test]
    fn custom_operator_builds_and_compares() {
        #[derive(Debug)]
        struct Negate;
        impl Operator for Negate {
            fn process(&mut self, _port: usize, input: &DataElement, out: &mut Emitter) {
                out.emit0(Payload {
                    value: -input.value,
                    ..Payload::from(input)
                });
            }
            fn demand_secs(&self, _input: &DataElement) -> f64 {
                1e-4
            }
            fn state_size_elements(&self) -> u64 {
                0
            }
            fn snapshot(&self) -> OperatorState {
                OperatorState::default()
            }
            fn restore(&mut self, _state: &OperatorState) {}
        }
        #[derive(Debug)]
        struct NegateFactory;
        impl OperatorFactory for NegateFactory {
            fn build(&self) -> Box<dyn Operator> {
                Box::new(Negate)
            }
        }
        let factory = std::sync::Arc::new(NegateFactory);
        let spec = OperatorSpec::Custom(factory.clone());
        let mut op = spec.build();
        assert_eq!(drive(op.as_mut(), &[(1, 3.0)]), vec![-3.0]);
        // Clones share the factory and compare equal; distinct factories
        // do not.
        assert_eq!(spec, spec.clone());
        assert_ne!(
            spec,
            OperatorSpec::Custom(std::sync::Arc::new(NegateFactory))
        );
        assert_ne!(spec, OperatorSpec::Counter { demand_secs: 1e-4 });
    }

    #[test]
    fn builtin_spec_equality_is_structural() {
        assert_eq!(
            OperatorSpec::synthetic_default(),
            OperatorSpec::synthetic_default()
        );
        assert_ne!(
            OperatorSpec::Counter { demand_secs: 1e-4 },
            OperatorSpec::Counter { demand_secs: 2e-4 }
        );
    }

    #[test]
    fn replicas_agree_exactly() {
        // Deterministic replication: the foundation of active standby.
        let spec = OperatorSpec::synthetic_default();
        let inputs: Vec<(u64, f64)> = (0..100).map(|i| (i % 7, (i as f64).sin())).collect();
        let mut a = spec.build();
        let mut b = spec.build();
        assert_eq!(drive(a.as_mut(), &inputs), drive(b.as_mut(), &inputs));
        assert_eq!(a.snapshot(), b.snapshot());
    }

    /// Stateful, port-sensitive, with an element-dependent demand and no
    /// run-level override: what a user's `Custom` operator looks like.
    #[derive(Debug, Default)]
    struct PortTagger {
        seen: u64,
    }

    impl Operator for PortTagger {
        fn process(&mut self, port: usize, input: &DataElement, out: &mut Emitter) {
            self.seen += 1;
            out.emit(
                port,
                Payload {
                    value: input.value + self.seen as f64,
                    ..Payload::from(input)
                },
            );
        }
        fn demand_secs(&self, input: &DataElement) -> f64 {
            1e-6 * (1 + input.key % 7) as f64
        }
        fn state_size_elements(&self) -> u64 {
            1
        }
        fn snapshot(&self) -> OperatorState {
            OperatorState(vec![self.seen as f64])
        }
        fn restore(&mut self, state: &OperatorState) {
            self.seen = state.0[0] as u64;
        }
    }

    #[derive(Debug)]
    struct PortTaggerFactory;

    impl OperatorFactory for PortTaggerFactory {
        fn build(&self) -> Box<dyn Operator> {
            Box::new(PortTagger::default())
        }
    }

    /// The run-level contract: for every built-in and a custom operator,
    /// over random runs on random ports, `process_run` emits what repeated
    /// `process` emits, attributes it to the same inputs and leaves a
    /// bit-equal state; `demand_run` is the left-to-right sum.
    #[test]
    fn run_forms_equal_the_per_element_loop() {
        let synthetic = |selectivity| OperatorSpec::Synthetic {
            selectivity,
            demand_secs: 1.5e-5,
            state_elements: 20,
        };
        let demand_secs = 1.5e-5;
        let specs = [
            synthetic(0.0),
            synthetic(0.3),
            synthetic(1.0),
            synthetic(2.5),
            OperatorSpec::Filter {
                min_value: 0.0,
                demand_secs,
            },
            OperatorSpec::Map {
                scale: 1.5,
                offset: -2.0,
                demand_secs,
            },
            OperatorSpec::WindowAggregate {
                window: 3,
                agg: AggKind::Avg,
                demand_secs,
            },
            OperatorSpec::WindowAggregate {
                window: 5,
                agg: AggKind::Max,
                demand_secs,
            },
            OperatorSpec::Vwap {
                window: 4,
                demand_secs,
            },
            OperatorSpec::Counter { demand_secs },
            OperatorSpec::ShardRouter {
                shards: 5,
                demand_secs,
            },
            OperatorSpec::Custom(std::sync::Arc::new(PortTaggerFactory)),
        ];
        let bits = |state: OperatorState| state.0.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let mut rng = sps_sim::SimRng::seed_from(0x0B5E);
        for spec in &specs {
            let (mut by_run, mut by_elem) = (spec.build(), spec.build());
            let (mut out_run, mut out_elem) = (Emitter::default(), Emitter::default());
            let mut seq = 0;
            for _ in 0..40 {
                let port = rng.uniform_u64(0, 3) as usize;
                let run: Vec<DataElement> = (0..rng.uniform_u64(0, 130))
                    .map(|_| {
                        seq += 1;
                        elem(seq, rng.uniform_u64(0, 1_000), rng.uniform(-50.0, 50.0))
                    })
                    .collect();

                by_run.process_run(port, &run, &mut out_run);
                assert!(out_run.closed_exactly(run.len()), "{spec:?}");
                let got: Vec<Vec<(usize, Payload)>> =
                    out_run.per_input().map(<[_]>::to_vec).collect();
                out_run.clear();
                let want: Vec<Vec<(usize, Payload)>> = run
                    .iter()
                    .map(|input| {
                        by_elem.process(port, input, &mut out_elem);
                        out_elem.take()
                    })
                    .collect();
                assert_eq!(got, want, "{spec:?}");
                assert_eq!(
                    bits(by_run.snapshot()),
                    bits(by_elem.snapshot()),
                    "{spec:?}"
                );

                let mut sum = 0.0;
                for input in &run {
                    sum += by_elem.demand_secs(input);
                }
                assert_eq!(by_run.demand_run(&run).to_bits(), sum.to_bits(), "{spec:?}");
            }
        }
    }

    #[test]
    fn shard_of_is_stable_in_range_and_balanced() {
        let shards = 16u32;
        let keys = 100_000u64;
        let mut counts = vec![0u64; shards as usize];
        for k in 0..keys {
            let s = shard_of(k, shards);
            assert!(s < shards);
            assert_eq!(s, shard_of(k, shards), "assignment is deterministic");
            counts[s as usize] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        // Dense key ranges spread evenly despite the power-of-two modulus.
        assert!(
            max < 2 * min,
            "shard imbalance on sequential keys: min {min}, max {max}"
        );
        // One shard never degenerates.
        assert_eq!(shard_of(42, 1), 0);
    }

    #[test]
    fn shard_router_routes_by_key_and_is_stateless() {
        let shards = 8u32;
        let mut op = OperatorSpec::ShardRouter {
            shards,
            demand_secs: 1e-6,
        }
        .build();
        let mut out = Emitter::default();
        for key in [0u64, 1, 7, 63, 1_000_003, u64::MAX] {
            op.process(0, &elem(1, key, 3.5), &mut out);
            let emitted = out.take();
            assert_eq!(emitted.len(), 1);
            let (port, payload) = &emitted[0];
            assert_eq!(*port, shard_of(key, shards) as usize);
            assert_eq!(payload.key, key, "payload passes through unchanged");
            assert_eq!(payload.value, 3.5);
        }
        assert_eq!(op.state_size_elements(), 0);
        assert_eq!(op.snapshot(), OperatorState::default());
    }
}
