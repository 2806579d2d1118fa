//! The docs name only what exists: every `--bin X` in README.md,
//! DESIGN.md and the verify skill is a file `crates/*/src/bin/X.rs`, and
//! every `--example X` a file `examples/X.rs`. EXPERIMENTS.md is left
//! out: its historical entries name retired binaries on purpose.

use std::path::Path;

#[test]
fn docs_name_only_existing_bins_and_examples() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/");
    let bin_dirs: Vec<_> = crates
        .map(|c| c.expect("crate").path().join("src/bin"))
        .collect();
    let targets = [
        ("--bin ", bin_dirs),
        ("--example ", vec![root.join("examples")]),
    ];
    let mut missing = Vec::new();
    for doc in ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for (flag, dirs) in &targets {
            for (at, _) in text.match_indices(flag) {
                let rest = &text[at + flag.len()..];
                let end = rest.find(|c: char| !c.is_ascii_alphanumeric() && c != '_');
                let name = &rest[..end.unwrap_or(rest.len())];
                if !dirs
                    .iter()
                    .any(|dir| dir.join(format!("{name}.rs")).is_file())
                {
                    missing.push(format!("{doc}: {flag}{name}"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs name missing targets: {missing:#?}"
    );
}
