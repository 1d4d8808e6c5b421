//! Drift guard: the documents and the CI workflow name only binaries and
//! source paths that exist, and none of the flags and environment
//! fallbacks `--observe-out` replaced. A renamed or deleted binary or file
//! fails here, not in a reader's terminal.

use std::path::Path;

const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "crates/bench/golden/README.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// The ten removed spellings, assembled so this file does not contain them.
fn removed() -> Vec<String> {
    let mut out: Vec<String> = ["QUICK", "JOBS"].map(|v| format!("SPS_{v}")).into();
    for layer in ["trace", "metrics", "health", "audit"] {
        out.push(format!("SPS_{}_OUT", layer.to_ascii_uppercase()));
        out.push(format!("--{layer}-out"));
    }
    out
}

#[test]
fn docs_name_only_binaries_and_flags_that_exist() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let bins: Vec<String> = std::fs::read_dir(repo.join("crates/bench/src/bin"))
        .expect("bin dir")
        .map(|e| {
            let stem = e.expect("dir entry").path();
            stem.file_stem().unwrap().to_string_lossy().into_owned()
        })
        .collect();
    let removed = removed();
    assert_eq!(removed.len(), 10);

    let mut problems = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(repo.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (n, line) in text.lines().enumerate() {
            for gone in removed.iter().filter(|g| line.contains(g.as_str())) {
                problems.push(format!("{doc}:{}: mentions removed `{gone}`", n + 1));
            }
            if !line.contains("-p sps-bench") {
                continue;
            }
            for (at, _) in line.match_indices("--bin ") {
                let name: String = line[at + 6..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || "_-".contains(*c))
                    .collect();
                if !bins.contains(&name.replace('-', "_")) {
                    problems.push(format!("{doc}:{}: no binary `{name}`", n + 1));
                }
            }
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// The repo-relative paths on `line`: each run of path characters that
/// starts with `crates/`, `tests/`, `benchmark/` or `examples/` and does
/// not continue a longer word or path, read to its last character, so that
/// `x.jsonl` is not taken for `x.json`, less a sentence's closing stop.
fn source_paths(line: &str) -> Vec<&str> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let mut out = Vec::new();
    for root in ["crates/", "tests/", "benchmark/", "examples/"] {
        for (at, _) in line.match_indices(root) {
            if line[..at].chars().next_back().is_some_and(is_path) {
                continue;
            }
            let len = line[at..].find(|c| !is_path(c)).unwrap_or(line.len() - at);
            out.push(line[at..at + len].trim_end_matches('.'));
        }
    }
    out
}

#[test]
fn source_paths_are_read_whole() {
    let line = "see `crates/bench/golden/observed_health.jsonl`, tests/chaos.rs. \
                and crates/core/tests/chaos.rs:12 (benchmark/) but not src/tests/x";
    assert_eq!(
        source_paths(line),
        [
            "crates/bench/golden/observed_health.jsonl",
            "crates/core/tests/chaos.rs",
            "tests/chaos.rs",
            "benchmark/",
        ]
    );
}

#[test]
fn docs_name_only_source_paths_that_exist() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut problems = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(repo.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (n, line) in text.lines().enumerate() {
            for path in source_paths(line) {
                if !repo.join(path).exists() {
                    problems.push(format!("{doc}:{}: no path `{path}`", n + 1));
                }
            }
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
