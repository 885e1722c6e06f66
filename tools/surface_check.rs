//! Public-surface ratchet: fails when a workspace crate grows a `pub`
//! item that nothing outside the crate uses.
//!
//! The scan is name-level. For every crate under `crates/` (the
//! third-party shims excepted) it collects each `pub fn`, `struct`,
//! `enum`, `trait`, `type`, `const` and `static` declared in the
//! library's `src/`, skipping every item marked `#[cfg(test)]`. An item
//! is *crate-local* when its name appears in no file outside that
//! library: other crates, the crate's own `benches/`, `tests/` and
//! binary targets (`src/main.rs`, `src/bin/`), the root `src/`,
//! `tests/` and `examples/`, and `perfbench/`. Comments and string
//! literals do not count as uses; code blocks in doc comments do,
//! since rustdoc compiles each one as an outside crate.
//!
//! Every crate-local `pub` item must be listed in
//! `tools/surface_allowlist.txt`, each with the reason it stays `pub`
//! in its own doc comment. The check fails on a crate-local item the
//! list lacks (make it `pub(crate)` or private instead, and let the
//! `dead_code` lint find what nothing uses), and on a listed item that
//! no longer exists or has gained an outside user (delete its line).
//! So the list, and the surface it names, can only shrink.
//!
//! Compiled standalone by `ci.sh` (`rustc -O tools/surface_check.rs`),
//! dependency-free, run from the repository root:
//!
//! ```text
//! surface_check            check against tools/surface_allowlist.txt
//! surface_check --list     print today's crate-local items in the
//!                          allowlist's format (`FILE KIND NAME`)
//! ```

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const ALLOWLIST: &str = "tools/surface_allowlist.txt";
const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Every `.rs` file under `dir`, sorted, or none when it is missing.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Pushes every identifier of `code` into `out`.
fn idents_of(code: &str, out: &mut HashSet<String>) {
    let mut chars = code.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if is_ident_start(c) {
            let mut end = i + c.len_utf8();
            while let Some(&(j, d)) = chars.peek() {
                if !is_ident_char(d) {
                    break;
                }
                end = j + d.len_utf8();
                chars.next();
            }
            out.insert(code[i..end].to_string());
        } else if c.is_ascii_digit() {
            // Skip the literal's suffix (`1u64`), which is no use.
            while chars.peek().is_some_and(|&(_, d)| is_ident_char(d)) {
                chars.next();
            }
        }
    }
}

/// The code of `src` with comments and string and character literals
/// blanked out, plus the code blocks of its doc comments.
fn code_and_doctests(src: &str) -> (String, String) {
    let b = src.as_bytes();
    let mut code = String::with_capacity(src.len());
    let mut doctests = String::new();
    let mut in_fence = false;
    let mut i = 0;
    while i < b.len() {
        if b[i..].starts_with(b"//") {
            let end = src[i..].find('\n').map_or(b.len(), |n| i + n);
            let line = &src[i..end];
            let doc = line
                .strip_prefix("///")
                .or_else(|| line.strip_prefix("//!"));
            if let Some(text) = doc {
                if text.trim_start().starts_with("```") {
                    in_fence = !in_fence;
                } else if in_fence {
                    doctests.push_str(text);
                    doctests.push('\n');
                }
            }
            i = end;
        } else if b[i..].starts_with(b"/*") {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if b[i] == b'r'
            && (i == 0 || !is_ident_char(b[i - 1] as char))
            && matches!(b.get(i + 1), Some(b'"' | b'#'))
        {
            // Raw string `r"…"` / `r#"…"#`; `r#ident` is no string.
            let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
            if b.get(i + 1 + hashes) != Some(&b'"') {
                code.push('r');
                i += 1;
                continue;
            }
            let close = format!("\"{}", "#".repeat(hashes));
            let body = i + 2 + hashes;
            i = src[body..].find(&close).map_or(b.len(), |n| body + n + close.len());
            code.push(' ');
        } else if b[i] == b'"' {
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
            code.push(' ');
        } else if b[i] == b'\'' {
            // A char literal closes within a few bytes; a lifetime
            // (`'a`) does not, and stays code.
            let lit = if b.get(i + 1) == Some(&b'\\') {
                src[i + 2..].find('\'').map(|n| i + 2 + n + 1)
            } else {
                src[i + 1..]
                    .char_indices()
                    .nth(1)
                    .filter(|&(_, c)| c == '\'')
                    .map(|(n, _)| i + 1 + n + 1)
            };
            match lit {
                Some(end) => {
                    code.push(' ');
                    i = end;
                }
                None => {
                    code.push('\'');
                    i += 1;
                }
            }
        } else {
            let c = src[i..].chars().next().unwrap_or(' ');
            code.push(c);
            i += c.len_utf8();
        }
    }
    (code, doctests)
}

/// One crate-local candidate: `(file, kind, name)`.
type Item = (String, &'static str, String);

/// Net brace depth change of one line of blanked code.
fn brace_delta(line: &str) -> i64 {
    line.chars()
        .map(|c| match c {
            '{' => 1,
            '}' => -1,
            _ => 0,
        })
        .sum()
}

/// The `pub` items declared in `code` (comments and literals blanked
/// out), skipping every item marked `#[cfg(test)]`.
fn pub_items(code: &str) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    let mut lines = code.lines();
    while let Some(line) = lines.next() {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("#[cfg(test)]") {
            // Skip to the end of the marked item: its braces close, or
            // it ends in `;` before opening any.
            let mut depth = brace_delta(rest);
            let mut opened = rest.contains('{');
            let mut ended = (opened && depth <= 0) || rest.trim_end().ends_with(';');
            while !ended {
                let Some(l) = lines.next() else { break };
                depth += brace_delta(l);
                opened |= l.contains('{');
                ended = (opened && depth <= 0) || (!opened && l.trim_end().ends_with(';'));
            }
            continue;
        }
        let Some(rest) = t.strip_prefix("pub ") else {
            continue;
        };
        let mut words = rest.split_whitespace().peekable();
        while words
            .peek()
            .is_some_and(|w| ["unsafe", "async", "extern", "\"C\""].contains(w))
        {
            words.next();
        }
        let Some(first) = words.next() else {
            continue;
        };
        // `pub const fn f` is a function, `pub const N` a constant.
        let (kind, name) = match (first, words.next()) {
            ("const", Some("fn")) => ("fn", words.next()),
            (k, name) => (k, name),
        };
        let Some(kind) = KINDS.iter().find(|&&k| k == kind) else {
            continue;
        };
        let Some(name) = name else {
            continue;
        };
        let name: String = name.chars().take_while(|&c| is_ident_char(c)).collect();
        if !name.is_empty() {
            out.push((*kind, name));
        }
    }
    out
}

fn display(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

/// Today's crate-local `pub` items and the number of `pub` items
/// scanned.
fn crate_local() -> (BTreeSet<Item>, usize) {
    let mut crates: Vec<PathBuf> = fs::read_dir("crates")
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    crates.retain(|c| c.join("src").is_dir() && !c.ends_with("shims"));
    crates.sort();

    // Every file that may use a crate's items, with its identifiers.
    let mut roots: Vec<PathBuf> = ["src", "tests", "examples", "perfbench/src", "perfbench/tests"]
        .iter()
        .map(PathBuf::from)
        .collect();
    for c in &crates {
        for sub in ["src", "benches", "tests", "examples"] {
            roots.push(c.join(sub));
        }
    }
    let mut files: Vec<(PathBuf, HashSet<String>, HashSet<String>, String)> = Vec::new();
    for root in &roots {
        for path in rust_files(root) {
            let src = fs::read_to_string(&path).unwrap_or_default();
            let (code, doctests) = code_and_doctests(&src);
            let (mut used, mut doc_used) = (HashSet::new(), HashSet::new());
            idents_of(&code, &mut used);
            idents_of(&doctests, &mut doc_used);
            files.push((path, used, doc_used, code));
        }
    }

    let mut local = BTreeSet::new();
    let mut scanned = 0;
    for c in &crates {
        let src_dir = c.join("src");
        let in_lib = |p: &Path| {
            p.starts_with(&src_dir)
                && p != src_dir.join("main.rs")
                && !p.starts_with(src_dir.join("bin"))
        };
        let mut outside: HashSet<&str> = HashSet::new();
        for (path, used, doc_used, _) in &files {
            if !in_lib(path) {
                outside.extend(used.iter().map(String::as_str));
            }
            outside.extend(doc_used.iter().map(String::as_str));
        }
        for (path, _, _, code) in files.iter().filter(|f| in_lib(&f.0)) {
            for (kind, name) in pub_items(code) {
                scanned += 1;
                if !outside.contains(name.as_str()) {
                    local.insert((display(path), kind, name));
                }
            }
        }
    }
    (local, scanned)
}

fn main() -> ExitCode {
    let list = std::env::args().skip(1).any(|a| a == "--list");
    let (local, scanned) = crate_local();
    if list {
        for (file, kind, name) in &local {
            println!("{file} {kind} {name}");
        }
        return ExitCode::SUCCESS;
    }
    let text = match fs::read_to_string(ALLOWLIST) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("surface: cannot read {ALLOWLIST}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut allowed: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 3 {
            eprintln!("surface: {ALLOWLIST}:{}: expected `FILE KIND NAME`", n + 1);
            return ExitCode::FAILURE;
        }
        allowed.insert((parts[0].into(), parts[1].into(), parts[2].into()), n + 1);
    }
    let mut failed = false;
    for (file, kind, name) in &local {
        if !allowed.contains_key(&(file.clone(), kind.to_string(), name.clone())) {
            eprintln!(
                "surface: {file}: `pub {kind} {name}` has no user outside its crate; \
                 make it pub(crate) or private (or list it in {ALLOWLIST} and say why \
                 in its doc comment)"
            );
            failed = true;
        }
    }
    let present: HashSet<(String, String, String)> = local
        .iter()
        .map(|(f, k, n)| (f.clone(), k.to_string(), n.clone()))
        .collect();
    for ((file, kind, name), line) in &allowed {
        if !present.contains(&(file.clone(), kind.clone(), name.clone())) {
            eprintln!(
                "surface: {ALLOWLIST}:{line}: `{file} {kind} {name}` is gone or now has \
                 an outside user; delete the line"
            );
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "surface: {scanned} pub items scanned, {} crate-local, all listed in {ALLOWLIST}",
        local.len()
    );
    ExitCode::SUCCESS
}
