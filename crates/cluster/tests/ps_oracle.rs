//! A closed-form oracle for the machine model.
//!
//! One [`Machine`], driven through its public API alone, is an M/G/1 queue:
//! Poisson arrivals at rate λ, each task `S` seconds of full-speed CPU, and
//! a background share that leaves capacity `c = 1 − share` to the tasks.
//! Under processor sharing the mean sojourn time is `E[S] / (c − λ·E[S])`
//! whatever the law of `S` (PS is insensitive to the service distribution),
//! so exponential and deterministic service with one mean must both meet
//! it. FCFS meets it for exponential service only: with deterministic
//! service its mean sojourn is Pollaczek–Khinchine's `E[S]/c · (1 +
//! ρ / (2(1 − ρ)))`, 40 % below PS's at ρ = 0.8, so the second law is
//! what tells the two disciplines apart.

use sps_cluster::{LoadComponent, Machine, MachineId};
use sps_sim::{SimDuration, SimRng, SimTime};

/// E[S]: 10 ms of full-speed CPU per task.
const MEAN_SERVICE: f64 = 0.010;
/// Tasks per run, the first [`WARMUP`] of which start from an empty
/// machine and are not counted.
const TASKS: usize = 40_000;
const WARMUP: usize = 2_000;
/// Relative tolerance on the mean sojourn time: three standard deviations
/// of the estimate at ρ = 0.8 (about 4 % over seeds at this length; 1 %
/// at ρ = 0.5), below FCFS's shortfall on deterministic service (25 % at
/// ρ = 0.5, 40 % at ρ = 0.8).
const TOLERANCE: f64 = 0.12;

/// The measured mean sojourn time of one run at load `rho` (a fraction of
/// the capacity the background `share` leaves), in seconds.
fn mean_sojourn(rho: f64, share: f64, exponential: bool, seed: u64) -> f64 {
    let capacity = 1.0 - share;
    let mean_gap = MEAN_SERVICE / (rho * capacity);
    let mut rng = SimRng::seed_from(seed);
    let mut machine: Machine<usize> = Machine::new(MachineId(0));
    machine.set_background(SimTime::ZERO, LoadComponent::CoLocated, share);
    let mut arrived: Vec<SimTime> = Vec::with_capacity(TASKS);
    let mut next_arrival = SimTime::ZERO + SimDuration::from_secs_f64(rng.exp(mean_gap));
    let mut finished = Vec::new();
    let (mut total, mut counted) = (0.0, 0);
    loop {
        let completion = machine.next_completion();
        if arrived.len() < TASKS && completion.is_none_or(|at| next_arrival < at) {
            let work = if exponential {
                rng.exp(MEAN_SERVICE)
            } else {
                MEAN_SERVICE
            };
            machine.submit(next_arrival, work, arrived.len());
            arrived.push(next_arrival);
            next_arrival += SimDuration::from_secs_f64(rng.exp(mean_gap));
        } else if let Some(at) = completion {
            machine.advance(at);
            machine.collect_finished_into(&mut finished);
            for task in finished.drain(..).filter(|t| t.tag >= WARMUP) {
                total += at.saturating_since(arrived[task.tag]).as_secs_f64();
                counted += 1;
            }
        } else {
            break;
        }
    }
    assert_eq!(counted, TASKS - WARMUP, "every counted task finished");
    total / counted as f64
}

#[test]
fn mean_sojourn_matches_processor_sharing_for_both_service_laws() {
    for (i, (rho, share)) in [(0.5, 0.0), (0.5, 0.3), (0.8, 0.0), (0.8, 0.3)]
        .into_iter()
        .enumerate()
    {
        let capacity = 1.0 - share;
        let want = MEAN_SERVICE / (capacity * (1.0 - rho));
        for exponential in [true, false] {
            let got = mean_sojourn(rho, share, exponential, 2010 + i as u64);
            let law = if exponential {
                "exponential"
            } else {
                "deterministic"
            };
            assert!(
                (got / want - 1.0).abs() <= TOLERANCE,
                "rho {rho}, share {share}, {law} service: mean sojourn {:.3} ms, \
                 processor sharing predicts {:.3} ms",
                got * 1e3,
                want * 1e3
            );
        }
    }
}
