//! Knob drift: the README's crate table lists exactly the `BOOTERS_*`
//! environment variables the crates read.
//!
//! A knob is any `"BOOTERS_…"` string literal under `crates/*/src`; that
//! also catches the serve knobs, which `node.rs` reads through its
//! `env_usize(name)` helper rather than a literal `env::var` call.

use std::collections::BTreeSet;
use std::path::Path;

/// Every `BOOTERS_…` name in `text` opened by the `open` character (the
/// name ends at the first character outside `[A-Z0-9_]`).
fn names_opened_by(text: &str, open: char) -> Vec<String> {
    text.match_indices("BOOTERS_")
        .filter(|&(i, _)| text[..i].ends_with(open))
        .map(|(i, _)| {
            let rest = &text[i..];
            let end = rest
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(rest.len());
            rest[..end].to_string()
        })
        .collect()
}

/// Every `"BOOTERS_…"` string literal in the `.rs` files under `dir`.
fn literals_under(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            literals_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source file");
            out.extend(names_opened_by(&text, '"'));
        }
    }
}

#[test]
fn readme_knob_table_lists_every_booters_env_var_the_crates_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            literals_under(&src, &mut read);
        }
    }

    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let documented: BTreeSet<String> = readme
        .lines()
        .filter(|l| l.starts_with("| `booters-"))
        .filter_map(|l| l.trim_end_matches('|').rsplit('|').next())
        .flat_map(|knobs| names_opened_by(knobs, '`'))
        .collect();

    assert!(
        !read.is_empty(),
        "found no BOOTERS_* literal under crates/*/src"
    );
    assert_eq!(
        read, documented,
        "the README knob table (left: read by the crates, right: documented) has drifted"
    );
}
