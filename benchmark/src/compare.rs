//! `compare BASE.json CHANGE.json`: the noise-aware gate. One row per
//! workload × end-to-end metric, judged by the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::ledger::{ledger, Decl};
use crate::measure::quantile;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, and the runs overlap.
    Unresolved,
}

/// Distance between the quartiles as a share of the median; 0 for fewer than
/// two samples.
fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mid = quantile(samples, 0.5);
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / mid.abs().max(f64::MIN_POSITIVE)
}

/// Judges one metric. `base` and `change` are the reported values; the
/// sample slices are each side's per-repetition readings (empty for exact
/// metrics, which have no spread).
pub fn judge(
    d: &Decl,
    base: f64,
    change: f64,
    base_samples: &[f64],
    change_samples: &[f64],
) -> Outcome {
    let bound = d.bound.unwrap_or(0.0);
    let worse_by = if d.higher_is_better {
        (base - change) / base
    } else {
        (change - base) / base
    };
    if spread(base_samples).max(spread(change_samples)) > bound {
        let better = |c: f64, b: f64| if d.higher_is_better { c > b } else { c < b };
        let all_better = change_samples
            .iter()
            .all(|&c| base_samples.iter().all(|&b| better(c, b)));
        return if all_better {
            Outcome::Ok
        } else {
            Outcome::Unresolved
        };
    }
    if worse_by > bound {
        Outcome::Regressed
    } else {
        Outcome::Ok
    }
}

fn samples(metric: &Json) -> Vec<f64> {
    metric
        .get("samples")
        .map(|s| s.as_arr().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Prints the table; returns how many rows regressed.
pub fn compare(base: &Json, change: &Json) -> Result<usize, String> {
    let decls = ledger().end_to_end;
    let mut regressed = 0;
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>16} {:>7}  verdict",
        "workload", "metric", "base", "change", "change/base", "bound"
    );
    let workloads = base.get("workloads").ok_or("base file has no workloads")?;
    for (name, b) in workloads.as_obj() {
        let c = change
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("change file lacks workload {name}"))?;
        let failed = |side: &Json| side.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(c) > failed(b) {
            println!(
                "{name:<20} more operations failed: {} vs {}",
                failed(c),
                failed(b)
            );
            regressed += 1;
        }
        for d in &decls {
            let metric = |side: &Json| side.get("end_to_end").and_then(|e| e.get(&d.name)).cloned();
            let (Some(bm), Some(cm)) = (metric(b), metric(c)) else {
                return Err(format!("{name}: metric {} missing from a file", d.name));
            };
            let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let (bv, cv) = (value(&bm), value(&cm));
            let outcome = judge(d, bv, cv, &samples(&bm), &samples(&cm));
            regressed += (outcome == Outcome::Regressed) as usize;
            println!(
                "{:<20} {:<20} {:>14.6} {:>14.6} {:>7.4} of {:<6.4e} {:>6.1}%  {}",
                name,
                d.name,
                bv,
                cv,
                cv / bv,
                bv,
                d.bound.unwrap_or(0.0) * 100.0,
                match outcome {
                    Outcome::Ok => "ok",
                    Outcome::Regressed => "regressed",
                    Outcome::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher: bool, bound: f64) -> Decl {
        Decl {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn judges_by_bound_and_spread() {
        let tight = [100.0, 101.0, 100.5, 99.5];
        // Within the bound.
        assert_eq!(
            judge(&decl(true, 0.1), 100.0, 95.0, &tight, &tight),
            Outcome::Ok
        );
        // Worse by more than the bound, direction respected.
        assert_eq!(
            judge(&decl(true, 0.1), 100.0, 80.0, &tight, &tight),
            Outcome::Regressed
        );
        assert_eq!(
            judge(&decl(false, 0.1), 100.0, 80.0, &tight, &tight),
            Outcome::Ok
        );
        assert_eq!(
            judge(&decl(false, 0.1), 100.0, 120.0, &tight, &tight),
            Outcome::Regressed
        );
        // Spread wider than the bound: unresolved, unless every run of the
        // change beats every run of the base.
        let wide = [70.0, 100.0, 130.0, 90.0];
        assert_eq!(
            judge(&decl(true, 0.1), 100.0, 80.0, &wide, &tight),
            Outcome::Unresolved
        );
        let far = [200.0, 210.0, 205.0, 220.0];
        assert_eq!(
            judge(&decl(true, 0.1), 100.0, 205.0, &wide, &far),
            Outcome::Ok
        );
        // Exact metrics carry no samples and are judged by the bound alone.
        assert_eq!(
            judge(&decl(false, 0.01), 100.0, 102.0, &[], &[]),
            Outcome::Regressed
        );
    }
}
