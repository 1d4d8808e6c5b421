//! The metric declarations of `BENCHMARK.json`, compiled in, and the check
//! that a run emitted exactly those names.

use std::collections::BTreeMap;

use crate::json::Json;

/// The declarations this binary was built against. Compiled in so a result
/// can never be labelled with another commit's units or bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct Decl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base value by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Ledger {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Decl>,
    pub per_layer: Vec<Decl>,
}

fn decls(section: &Json) -> Vec<Decl> {
    section
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            Decl {
                name: field("name"),
                unit: field("unit"),
                higher_is_better: field("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

pub fn ledger() -> Ledger {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let section = |k: &str| doc.get(k).cloned().unwrap_or(Json::Null);
    Ledger {
        run_seconds: section("run_seconds").as_f64().unwrap_or(10.0),
        workloads: section("workloads")
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect(),
        end_to_end: decls(&section("end_to_end")),
        per_layer: decls(&section("per_layer")),
    }
}

/// Metrics as emitted: name → value. A name emitted twice is an error the
/// moment it happens.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            self.0.insert(name.clone(), value).is_none(),
            "metric {name} emitted twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Metrics) {
        for (name, value) in other.0 {
            self.put(name, value);
        }
    }

    /// The emitted values in declaration order, provided every declared name
    /// was emitted with a finite value and nothing else was.
    pub fn against(&self, declared: &[Decl]) -> Result<Vec<(Decl, f64)>, String> {
        let mut out = Vec::with_capacity(declared.len());
        for d in declared {
            match self.0.get(&d.name) {
                Some(v) if v.is_finite() => out.push((d.clone(), *v)),
                Some(v) => return Err(format!("metric {} is not finite: {v}", d.name)),
                None => return Err(format!("declared metric {} was not emitted", d.name)),
            }
        }
        for name in self.0.keys() {
            if !declared.iter().any(|d| &d.name == name) {
                return Err(format!("metric {name} is emitted but not declared"));
            }
        }
        Ok(out)
    }
}
