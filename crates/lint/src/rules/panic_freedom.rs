//! Rule `panic-freedom`: no `unwrap()` / `expect()` / panicking macros
//! / slice indexing in non-test code on the connection-handling paths.
//!
//! A panic in a handler thread kills the connection it serves; a panic
//! on the accept or drain path kills the daemon. The scope is exactly
//! the files where either can happen: the server/client/proto/frame/
//! router layer of `crates/service`, the schedule codec in
//! `crates/network` that layer decodes replies and spill files with,
//! plus all of `crates/cli` (whose `main` is the daemon's entry point).

use crate::source::SourceFile;
use crate::Finding;

const RULE: &str = "panic-freedom";

/// Macros whose expansion is an unconditional panic.
const PANIC_MACROS: [&str; 4] = ["panic!", "unreachable!", "todo!", "unimplemented!"];

/// Whether the rule applies to `path` (repo-relative, `/`-separated).
pub fn in_scope(path: &str) -> bool {
    let normalized = path.replace('\\', "/");
    if normalized.contains("crates/cli/src/") {
        return true;
    }
    [
        "crates/service/src/server.rs",
        "crates/service/src/client.rs",
        "crates/service/src/proto.rs",
        "crates/service/src/frame.rs",
        "crates/service/src/router.rs",
        "crates/network/src/codec.rs",
    ]
    .iter()
    .any(|scoped| normalized.ends_with(scoped))
}

/// Scans one in-scope file.
pub fn check(src: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, code) in src.code.iter().enumerate() {
        if src.test[i] || src.allowed(i, RULE) {
            continue;
        }
        let mut report = |message: String| {
            findings.push(Finding {
                rule: RULE,
                path: src.path.clone(),
                line: i + 1,
                message,
            });
        };
        if code.contains(".unwrap()") {
            report("`.unwrap()` panics on Err/None; handle or propagate the error".to_owned());
        }
        if code.contains(".expect(") {
            report(
                "`.expect(...)` panics on Err/None; handle the error (for lock poisoning, \
                 `unwrap_or_else(|e| e.into_inner())`)"
                    .to_owned(),
            );
        }
        for mac in PANIC_MACROS {
            for at in find_all(code, mac) {
                if !prev_is_ident(code, at) {
                    report(format!("`{mac}` is an unconditional panic on this path"));
                }
            }
        }
        for col in index_sites(code) {
            report(format!(
                "slice/array indexing at column {} can panic; prefer `.get(..)`",
                col + 1
            ));
        }
    }
    findings
}

/// Char positions where an indexing `[` appears: a `[` whose previous
/// non-space char ends an expression (identifier, `)`, or `]`). Macro
/// brackets (`vec![`), attributes (`#[`), types (`&[u8]`, `: [u8; 4]`),
/// and patterns are all preceded by other characters and skip free.
fn index_sites(code: &str) -> Vec<usize> {
    let chars: Vec<char> = code.chars().collect();
    let mut sites = Vec::new();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let before: Vec<char> = chars[..i]
            .iter()
            .rev()
            .skip_while(|ch| ch.is_whitespace())
            .copied()
            .collect();
        let indexes = match before.first() {
            Some(&p) => p == ')' || p == ']' || p == '_' || p.is_alphanumeric(),
            None => false,
        };
        // `let [a, b] = ...` and friends are slice patterns, not indexing.
        let word: String = before
            .iter()
            .take_while(|c| c.is_alphanumeric() || **c == '_')
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        let keyword = matches!(
            word.as_str(),
            "let" | "in" | "if" | "else" | "match" | "return" | "ref" | "mut" | "box"
        );
        // `&'a [u8]`: a lifetime before `[` is a type, not indexing.
        let lifetime = before.get(word.chars().count()) == Some(&'\'');
        if indexes && !keyword && !lifetime {
            sites.push(i);
        }
    }
    sites
}

fn find_all(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = haystack[from..].find(needle) {
        out.push(from + at);
        from += at + needle.len();
    }
    out
}

/// Whether the char before byte offset `at` continues an identifier
/// (so `my_panic!` is not the `panic!` macro).
fn prev_is_ident(code: &str, at: usize) -> bool {
    code[..at]
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}
