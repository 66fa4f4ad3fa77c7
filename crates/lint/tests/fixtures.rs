//! Fixture suite: every rule fires on its seeded violations and stays
//! silent on the clean twin — plus the real-tree drift tests pinning
//! that deleting any documented kind, op, or metric family row fails
//! the lint.

use std::path::Path;

use pops_lint::manifest::Manifest;
use pops_lint::rules::{hot_path, lock_discipline, panic_freedom, protocol_sync};
use pops_lint::source::SourceFile;

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Parses a fixture under a path the panic-freedom scope covers.
fn in_scope_source(rel: &str) -> SourceFile {
    SourceFile::parse("crates/service/src/server.rs", &fixture(rel))
}

// ---------------------------------------------------------------- panic

#[test]
fn panic_freedom_fires_on_every_seeded_violation() {
    let src = in_scope_source("panic/dirty.rs");
    assert!(src.directive_findings.is_empty());
    let findings = panic_freedom::check(&src);
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        messages.iter().any(|m| m.contains("indexing")),
        "indexing not flagged: {messages:?}"
    );
    assert!(messages.iter().any(|m| m.contains("`.unwrap()`")));
    assert!(messages.iter().any(|m| m.contains("`.expect(...)`")));
    assert!(messages.iter().any(|m| m.contains("`panic!`")));
    assert_eq!(findings.len(), 4, "{messages:?}");
}

#[test]
fn panic_freedom_is_silent_on_the_clean_twin() {
    let src = in_scope_source("panic/clean.rs");
    assert!(src.directive_findings.is_empty());
    let findings = panic_freedom::check(&src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_freedom_scope_is_the_wire_and_cli_layer() {
    assert!(panic_freedom::in_scope("crates/service/src/server.rs"));
    assert!(panic_freedom::in_scope("crates/service/src/frame.rs"));
    assert!(panic_freedom::in_scope("crates/cli/src/commands.rs"));
    assert!(panic_freedom::in_scope("crates/network/src/codec.rs"));
    assert!(!panic_freedom::in_scope("crates/bipartite/src/graph.rs"));
    assert!(!panic_freedom::in_scope("crates/service/src/cache.rs"));
}

#[test]
fn malformed_directives_are_findings() {
    let src = in_scope_source("panic/bad_directive.rs");
    let messages: Vec<&str> = src
        .directive_findings
        .iter()
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("reason")),
        "missing-reason directive not flagged: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("unknown rule")),
        "unknown-rule directive not flagged: {messages:?}"
    );
}

// -------------------------------------------------------------- hot path

#[test]
fn hot_path_fires_inside_annotated_regions() {
    let src = SourceFile::parse(
        "crates/lint/tests/fixtures/hotpath/dirty.rs",
        &fixture("hotpath/dirty.rs"),
    );
    let findings = hot_path::check(&src);
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        messages.iter().any(|m| m.contains("`format!`")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("`String::new(`")),
        "{messages:?}"
    );
}

#[test]
fn hot_path_is_silent_on_setup_blocks_and_cold_code() {
    let src = SourceFile::parse(
        "crates/lint/tests/fixtures/hotpath/clean.rs",
        &fixture("hotpath/clean.rs"),
    );
    assert!(src.directive_findings.is_empty());
    let findings = hot_path::check(&src);
    assert!(findings.is_empty(), "{findings:?}");
}

// ----------------------------------------------------------------- locks

#[test]
fn lock_discipline_fires_on_undeclared_nesting() {
    let src = SourceFile::parse(
        "crates/lint/tests/fixtures/locks/dirty.rs",
        &fixture("locks/dirty.rs"),
    );
    let findings = lock_discipline::check(&src, &Manifest::default());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("conns"));
    assert!(findings[0].message.contains("registry"));
}

#[test]
fn lock_discipline_accepts_a_declared_pair() {
    let manifest = Manifest::parse(
        "[[pair]]\nouter = \"conns\"\ninner = \"registry\"\nreason = \"fixture\"\n",
    )
    .unwrap();
    let src = SourceFile::parse(
        "crates/lint/tests/fixtures/locks/dirty.rs",
        &fixture("locks/dirty.rs"),
    );
    let findings = lock_discipline::check(&src, &manifest);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_discipline_is_silent_on_scoped_guards() {
    let src = SourceFile::parse(
        "crates/lint/tests/fixtures/locks/clean.rs",
        &fixture("locks/clean.rs"),
    );
    let findings = lock_discipline::check(&src, &Manifest::default());
    assert!(findings.is_empty(), "{findings:?}");
}

// -------------------------------------------------------------- protocol

fn mini_sources() -> protocol_sync::ProtocolSources {
    protocol_sync::ProtocolSources {
        proto: SourceFile::parse("proto.rs", &fixture("protocol/proto.rs")),
        server: SourceFile::parse("server.rs", &fixture("protocol/server.rs")),
        exposition: SourceFile::parse("exposition.rs", &fixture("protocol/exposition.rs")),
        protocol_md: fixture("protocol/PROTOCOL.md"),
        protocol_md_path: "PROTOCOL.md".to_owned(),
        operations_md: fixture("protocol/OPERATIONS.md"),
        operations_md_path: "OPERATIONS.md".to_owned(),
    }
}

#[test]
fn protocol_sync_is_silent_when_code_and_docs_agree() {
    let findings = protocol_sync::check(&mini_sources());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn deleting_a_documented_kind_row_fires() {
    let mut sources = mini_sources();
    sources.protocol_md = drop_line(&sources.protocol_md, "| `routing` |");
    let findings = protocol_sync::check(&sources);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`routing`") && f.message.contains("missing")),
        "{findings:?}"
    );
}

#[test]
fn a_documented_but_dead_kind_fires() {
    let mut sources = mini_sources();
    sources.protocol_md = sources
        .protocol_md
        .replace("## Errors", "## Errors\n\n| `kind` | meaning | connection |\n|---|---|---|\n| `ghost` | never emitted | — |");
    let findings = protocol_sync::check(&sources);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`ghost`") && f.message.contains("documented-but-dead")),
        "{findings:?}"
    );
}

#[test]
fn deleting_an_op_heading_fires_for_dispatch_and_short_circuit_ops() {
    for op in ["ping", "hello"] {
        let mut sources = mini_sources();
        sources.protocol_md = drop_line(&sources.protocol_md, &format!("### `{op}`"));
        let findings = protocol_sync::check(&sources);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains(&format!("`{op}`")) && f.message.contains("missing")),
            "op {op}: {findings:?}"
        );
    }
}

#[test]
fn deleting_a_documented_family_row_fires() {
    let mut sources = mini_sources();
    sources.operations_md = drop_line(&sources.operations_md, "| `pops_uptime_seconds` |");
    let findings = protocol_sync::check(&sources);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`pops_uptime_seconds`") && f.message.contains("missing")),
        "{findings:?}"
    );
}

#[test]
fn an_unregistered_family_in_docs_fires() {
    let mut sources = mini_sources();
    sources.operations_md = sources.operations_md.replace(
        "| `pops_uptime_seconds` | gauge |",
        "| `pops_uptime_seconds` | gauge |\n| `pops_ghost_total` | counter |",
    );
    let findings = protocol_sync::check(&sources);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`pops_ghost_total`")
                && f.message.contains("documented-but-dead")),
        "{findings:?}"
    );
}

#[test]
fn extraction_collapse_is_itself_a_finding() {
    let mut sources = mini_sources();
    sources.proto = SourceFile::parse("proto.rs", "pub fn nothing_here() {}\n");
    let findings = protocol_sync::check(&sources);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("extracted zero")),
        "{findings:?}"
    );
}

fn drop_line(text: &str, containing: &str) -> String {
    let kept: Vec<&str> = text.lines().filter(|l| !l.contains(containing)).collect();
    assert!(
        kept.len() < text.lines().count(),
        "fixture line `{containing}` not found"
    );
    kept.join("\n")
}

// ------------------------------------------------------------- real tree

fn repo_root() -> std::path::PathBuf {
    pops_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn real_sources() -> protocol_sync::ProtocolSources {
    let root = repo_root();
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
    };
    protocol_sync::ProtocolSources {
        proto: SourceFile::parse(
            "crates/service/src/proto.rs",
            &read("crates/service/src/proto.rs"),
        ),
        server: SourceFile::parse(
            "crates/service/src/server.rs",
            &read("crates/service/src/server.rs"),
        ),
        exposition: SourceFile::parse(
            "crates/service/src/exposition.rs",
            &read("crates/service/src/exposition.rs"),
        ),
        protocol_md: read("docs/PROTOCOL.md"),
        protocol_md_path: "docs/PROTOCOL.md".to_owned(),
        operations_md: read("docs/OPERATIONS.md"),
        operations_md_path: "docs/OPERATIONS.md".to_owned(),
    }
}

#[test]
fn the_workspace_is_lint_clean() {
    let findings = pops_lint::run_workspace(&repo_root()).expect("lint run");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn deleting_any_real_kind_row_fails_the_lint() {
    let pristine = real_sources();
    assert!(protocol_sync::check(&pristine).is_empty());
    let rows: Vec<String> = pristine
        .protocol_md
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("| `kind` |"))
        .skip(2) // header + separator
        .take_while(|l| l.trim_start().starts_with('|'))
        .map(str::to_owned)
        .collect();
    assert!(
        rows.len() >= 8,
        "expected the full error-kind table, got {rows:?}"
    );
    for row in rows {
        let mut mutated = real_sources();
        mutated.protocol_md = drop_line(&mutated.protocol_md, &row);
        assert!(
            !protocol_sync::check(&mutated).is_empty(),
            "deleting kind row `{row}` went unnoticed"
        );
    }
}

#[test]
fn deleting_any_real_family_row_fails_the_lint() {
    let pristine = real_sources();
    let rows: Vec<String> = pristine
        .operations_md
        .lines()
        .filter(|l| l.trim_start().starts_with("| `pops_"))
        .map(str::to_owned)
        .collect();
    assert!(
        rows.len() >= 30,
        "expected one row per family, got {}",
        rows.len()
    );
    for row in rows {
        let mut mutated = real_sources();
        mutated.operations_md = drop_line(&mutated.operations_md, &row);
        assert!(
            !protocol_sync::check(&mutated).is_empty(),
            "deleting family row `{row}` went unnoticed"
        );
    }
}

#[test]
fn deleting_any_real_op_heading_fails_the_lint() {
    let pristine = real_sources();
    let headings: Vec<String> = pristine
        .protocol_md
        .lines()
        .filter(|l| l.starts_with("### `"))
        .map(str::to_owned)
        .collect();
    assert!(
        headings.len() >= 8,
        "expected one heading per op, got {headings:?}"
    );
    for heading in headings {
        let mut mutated = real_sources();
        mutated.protocol_md = drop_line(&mutated.protocol_md, &heading);
        assert!(
            !protocol_sync::check(&mutated).is_empty(),
            "deleting op heading `{heading}` went unnoticed"
        );
    }
}
