//! Public-surface drift: every `pub fn` under `crates/*/src` has a caller
//! in some other file.
//!
//! A `pub fn` counts as called when its name appears as a whole word in
//! another `.rs` file under `crates/`, `src/`, `tests/`, `examples/`,
//! `bench_e2e/src` or `bench_e2e/tests`. A `pub use` re-export is not a
//! call. Functions inside `#[cfg(test)]` items are skipped. A helper that
//! only its own file calls should be private; one that nothing calls
//! should go. The `unreachable_pub` lint cannot see this, because nearly
//! every module is a `pub mod`.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The numbered lines of `text` outside its `#[cfg(test)]` items.
/// rustfmt closes an item with a `}` at the item's own indentation, which
/// ends the skip.
fn without_test_items(text: &str) -> Vec<(usize, &str)> {
    let mut kept = Vec::new();
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    while let Some((n, line)) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            kept.push((n, line));
            continue;
        }
        let indent = &line[..line.len() - line.trim_start().len()];
        let close = format!("{indent}}}");
        let Some((_, item)) = lines.next() else { break };
        if item.trim_end().ends_with('{') {
            for (_, body) in lines.by_ref() {
                if body == close {
                    break;
                }
            }
        }
    }
    kept
}

/// The name of the function a line declares `pub fn NAME` (or
/// `pub const fn NAME`), if any.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Whether `name` occurs in `line` as a whole word.
fn names(line: &str, name: &str) -> bool {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices(name).any(|(i, _)| {
        !line[..i].chars().next_back().is_some_and(is_word)
            && !line[i + name.len()..].chars().next().is_some_and(is_word)
    })
}

/// The lines of `text` outside `pub use` statements.
fn outside_reexports(text: &str) -> Vec<&str> {
    let mut kept = Vec::new();
    let mut in_reexport = false;
    for line in text.lines() {
        if line.trim_start().starts_with("pub use ") {
            in_reexport = true;
        }
        if in_reexport {
            in_reexport = !line.contains(';');
        } else {
            kept.push(line);
        }
    }
    kept
}

#[test]
fn every_pub_fn_under_crates_src_has_a_caller_in_another_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in [
        "crates",
        "src",
        "tests",
        "examples",
        "bench_e2e/src",
        "bench_e2e/tests",
    ] {
        rust_files(&root.join(dir), &mut files);
    }
    let texts: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable source file");
            (p, text)
        })
        .collect();
    let uses: Vec<Vec<&str>> = texts.iter().map(|(_, t)| outside_reexports(t)).collect();

    let mut declared = 0;
    let mut uncalled = Vec::new();
    for (i, (path, text)) in texts.iter().enumerate() {
        let rel = path.strip_prefix(root).expect("file under the repo root");
        if !(rel.starts_with("crates") && rel.iter().nth(2).is_some_and(|c| c == "src")) {
            continue;
        }
        for (n, line) in without_test_items(text) {
            let Some(name) = pub_fn_name(line) else {
                continue;
            };
            declared += 1;
            let called = uses
                .iter()
                .enumerate()
                .any(|(j, lines)| j != i && lines.iter().any(|l| names(l, name)));
            if !called {
                uncalled.push(format!("{}:{n}: pub fn {name}", rel.display()));
            }
        }
    }

    assert!(
        declared > 100,
        "found only {declared} pub fns under crates/*/src"
    );
    assert!(
        uncalled.is_empty(),
        "these pub fns have no caller outside their own file; make them private or delete them:\n{}",
        uncalled.join("\n")
    );
}
