//! docs/EVIDENCE.md cites the code and tests behind each paper claim.
//! A citation that names nothing is a broken link, so every snake_case
//! identifier the document cites in backticks must resolve to a `fn` or
//! to a file stem under `crates/`, `src/` or `tests/`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The names declared with `fn` in `source`.
fn fn_names(source: &str, out: &mut BTreeSet<String>) {
    let mut rest = source;
    while let Some(at) = rest.find("fn ") {
        let before = rest[..at].chars().next_back();
        let after = &rest[at + 3..];
        if !before.is_some_and(is_ident_char) {
            let name: String = after.chars().take_while(|&c| is_ident_char(c)).collect();
            if !name.is_empty() {
                out.insert(name);
            }
        }
        rest = after;
    }
}

/// `name` is snake_case: lowercase words joined by underscores, at least
/// two of them.
fn is_snake_case(name: &str) -> bool {
    name.contains('_')
        && name.starts_with(|c: char| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && !name.ends_with('_')
        && !name.contains("__")
}

/// The snake_case identifiers cited in backticks: a span holding one
/// identifier, optionally `Type::`-qualified and called with `()`.
fn cited_identifiers(doc: &str) -> BTreeSet<String> {
    let mut cited = BTreeSet::new();
    for (i, span) in doc.split('`').enumerate() {
        if i % 2 == 0 {
            continue; // outside backticks
        }
        let span = span.trim_end_matches("()");
        let last = span.rsplit("::").next().unwrap_or(span);
        if is_snake_case(last) && span.chars().all(|c| is_ident_char(c) || c == ':') {
            cited.insert(last.to_owned());
        }
    }
    cited
}

#[test]
fn every_cited_identifier_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("docs/EVIDENCE.md")).expect("docs/EVIDENCE.md");
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut known = BTreeSet::new();
    for file in &files {
        if let Some(stem) = file.file_stem().and_then(|s| s.to_str()) {
            known.insert(stem.to_owned());
        }
        fn_names(
            &std::fs::read_to_string(file).expect("readable"),
            &mut known,
        );
    }
    let cited = cited_identifiers(&doc);
    assert!(
        cited.len() > 50,
        "the citation scan found too little: {cited:?}"
    );
    let missing: Vec<&String> = cited.iter().filter(|name| !known.contains(*name)).collect();
    assert!(
        missing.is_empty(),
        "docs/EVIDENCE.md cites identifiers that name no fn or file: {missing:?}"
    );
}
