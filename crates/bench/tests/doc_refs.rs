//! Drift guard: the documents and the CI workflow name only binaries that
//! exist and none of the flags and environment fallbacks `--observe-out`
//! replaced. A renamed or deleted binary fails here, not in a reader's
//! terminal.

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
