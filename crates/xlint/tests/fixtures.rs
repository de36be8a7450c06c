//! Exact-count checks of the lexer and rule engine against the hostile
//! fixtures in `crates/xlint/fixtures/` (which are plain text to the build:
//! never compiled, never scanned by the workspace walk).

use xlint::check_file;

fn count(findings: &[xlint::Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn nested_block_comments_hide_panics() {
    let src = include_str!("../fixtures/nested_comments.rs");
    // Scanned as if it were phylo library code (panic-freedom scope).
    let f = check_file("crates/phylo/src/fixture.rs", src);
    assert_eq!(count(&f, "panic-freedom"), 1, "findings: {f:#?}");
    assert_eq!(f.len(), 1);
    assert_eq!(
        f[0].snippet,
        "x.unwrap() // the only live finding in this file"
    );
}

#[test]
fn raw_strings_hide_panics() {
    let src = include_str!("../fixtures/raw_strings.rs");
    let f = check_file("crates/core/src/fixture.rs", src);
    assert_eq!(count(&f, "panic-freedom"), 1, "findings: {f:#?}");
    assert_eq!(f.len(), 1);
    assert!(f[0].snippet.contains(".expect(lifetime_ok)"));
}

#[test]
fn cfg_test_regions_are_exempt_but_not_test_is_not() {
    let src = include_str!("../fixtures/cfg_test_regions.rs");
    let f = check_file("crates/phylo/src/fixture.rs", src);
    assert_eq!(count(&f, "panic-freedom"), 3, "findings: {f:#?}");
    assert_eq!(f.len(), 3);
    // The cfg(not(test)) site is one of them.
    assert!(f
        .iter()
        .any(|x| x.snippet.contains("cfg(not(test)) is production")));
}

#[test]
fn allow_escape_suppresses_named_rule_only() {
    let src = include_str!("../fixtures/allow_escape.rs");
    let f = check_file("crates/phylo/src/fixture.rs", src);
    assert_eq!(count(&f, "panic-freedom"), 3, "findings: {f:#?}");
    assert_eq!(count(&f, "allow-syntax"), 1, "findings: {f:#?}");
    assert_eq!(f.len(), 4);
}

#[test]
fn parallel_scope_rules_fire_exactly() {
    let src = include_str!("../fixtures/parallel_rules.rs");
    let f = check_file("crates/parallel/src/fixture.rs", src);
    assert_eq!(count(&f, "sync-facade"), 2, "findings: {f:#?}");
    assert_eq!(count(&f, "ordering-justification"), 1, "findings: {f:#?}");
    assert_eq!(count(&f, "no-stray-io"), 2, "findings: {f:#?}");
    assert_eq!(f.len(), 5);
}

#[test]
fn scoping_silences_out_of_scope_rules() {
    let src = include_str!("../fixtures/parallel_rules.rs");
    // Same content in the exempted facade file: sync-facade is silent,
    // the other two parallel-scope rules still apply.
    let f = check_file("crates/parallel/src/sync.rs", src);
    assert_eq!(count(&f, "sync-facade"), 0);
    assert_eq!(count(&f, "ordering-justification"), 1);
    // And in a crate no rule covers, nothing fires at all.
    let f = check_file("crates/bench/src/fixture.rs", src);
    assert!(f.is_empty(), "findings: {f:#?}");
}

#[test]
fn lexer_tokenizes_hostile_cases() {
    use xlint::lexer::{lex_marked, TokKind};
    let toks = lex_marked(
        "let a = r#\"not an // xlint: allow(x) comment\"#; // real /* still line */\n\
         /* nested /* twice */ once */ let b = 'x'; let l: &'static str = \"s\";",
    );
    let kinds: Vec<&TokKind> = toks.iter().map(|t| &t.kind).collect();
    // The raw string is one Str token, the trailing text one Comment.
    assert_eq!(
        toks.iter().filter(|t| t.kind == TokKind::Str).count(),
        2,
        "{toks:#?}"
    );
    assert_eq!(
        toks.iter().filter(|t| t.kind == TokKind::Comment).count(),
        2,
        "{toks:#?}"
    );
    assert!(kinds.contains(&&TokKind::Char));
    assert!(kinds.contains(&&TokKind::Lifetime));
    // The allow-marker inside the raw string is literal content.
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::Str && t.text.contains("xlint: allow")));
}

#[test]
fn multiline_tokens_report_line_spans() {
    use xlint::lexer::{lex, TokKind};
    let toks = lex("/* one\ntwo\nthree */ fn x() {}\nlet s = \"a\nb\";\n");
    let c = toks.iter().find(|t| t.kind == TokKind::Comment).unwrap();
    assert_eq!((c.line, c.end_line), (1, 3));
    let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
    assert_eq!((s.line, s.end_line), (4, 5));
    let f = toks.iter().find(|t| t.text == "fn").unwrap();
    assert_eq!(f.line, 3);
}

#[test]
fn atomic_ordering_mismatches_and_asymmetry_fire_exactly() {
    let src = include_str!("../fixtures/atomic_ordering.rs");
    let f = check_file("crates/parallel/src/fixture.rs", src);
    assert_eq!(count(&f, "atomic-ordering"), 2, "findings: {f:#?}");
    // The declared-vs-actual bugfix on SeqCst/Relaxed token sites stays
    // with ordering-justification (stable fingerprints).
    assert_eq!(count(&f, "ordering-justification"), 1, "findings: {f:#?}");
    assert_eq!(f.len(), 3);
    assert!(f
        .iter()
        .any(|x| x.message.contains("Relaxed load of `flag`")));
    assert!(f
        .iter()
        .any(|x| x.message.contains("`data.load` uses Acquire")));
    assert!(f.iter().any(|x| x
        .message
        .contains("`Ordering::SeqCst` but its `// ordering:` comment declares Acquire")));
}

#[test]
fn lock_scope_flags_park_wait_and_kernels() {
    let src = include_str!("../fixtures/lock_scope.rs");
    let f = check_file("crates/parallel/src/fixture.rs", src);
    assert_eq!(count(&f, "lock-scope"), 4, "findings: {f:#?}");
    assert_eq!(f.len(), 4);
    assert!(f.iter().any(|x| x.message.contains("`park()`")));
    assert!(f
        .iter()
        .any(|x| x.message.contains("does not consume `MutexGuard` `ga`")));
    assert!(f
        .iter()
        .any(|x| x.message.contains("explore kernel `step`")));
    assert!(f
        .iter()
        .any(|x| x.message.contains("explore kernel `for_task`")));
}

#[test]
fn sink_error_latching_requires_finish_to_surface() {
    let src = include_str!("../fixtures/sink_latching.rs");
    let f = check_file("crates/standfile/src/fixture.rs", src);
    assert_eq!(count(&f, "sink-error-latching"), 2, "findings: {f:#?}");
    assert_eq!(f.len(), 2);
    assert!(f
        .iter()
        .any(|x| x.message.contains("`finish()` never reads `self.err`")));
    assert!(f.iter().any(|x| x.message.contains("no `finish()` body")));
}

#[test]
fn unchecked_arithmetic_fires_exactly_in_wire_scope() {
    let src = include_str!("../fixtures/unchecked_arith.rs");
    let f = check_file("crates/standfile/src/varint.rs", src);
    assert_eq!(count(&f, "unchecked-arithmetic"), 3, "findings: {f:#?}");
    assert_eq!(f.len(), 3);
    assert!(f.iter().any(|x| x.message.contains("`as u32`")));
    assert!(f.iter().any(|x| x.message.contains("unchecked `+`")));
    assert!(f.iter().any(|x| x.message.contains("unchecked `<<`")));
    // The same content outside the wire-format scope is silent.
    let f = check_file("crates/standfile/src/other.rs", src);
    assert_eq!(count(&f, "unchecked-arithmetic"), 0, "findings: {f:#?}");
}

#[test]
fn unsafe_inventory_requires_safety_comments() {
    let src = include_str!("../fixtures/unsafe_inventory.rs");
    let f = check_file("crates/core/src/fixture.rs", src);
    assert_eq!(count(&f, "unsafe-inventory"), 3, "findings: {f:#?}");
    assert_eq!(f.len(), 3);
    assert!(f.iter().any(|x| x.message.contains("`unsafe` block")));
    assert!(f.iter().any(|x| x.message.contains("`unsafe` impl")));
    assert!(f.iter().any(|x| x.message.contains("`unsafe` fn")));
}

#[test]
fn baseline_freezes_and_goes_stale() {
    let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let findings = check_file("crates/core/src/debt.rs", src);
    assert_eq!(findings.len(), 1);

    // Freezing the finding makes the report clean…
    let text = xlint::Baseline::render(&findings);
    let bl = xlint::Baseline::parse(&text);
    let report = bl.apply(findings.clone());
    assert!(report.clean());
    assert_eq!(report.baselined, 1);

    // …a *new* finding is live even with the baseline…
    let two = format!("{src}pub fn g(y: Option<u8>) -> u8 {{ y.expect(\"no\") }}\n");
    let report = bl.apply(check_file("crates/core/src/debt.rs", &two));
    assert_eq!(report.findings.len(), 1);
    assert!(!report.clean());

    // …and fixing the frozen debt turns the entry stale (also a failure).
    let report = bl.apply(Vec::new());
    assert_eq!(report.findings.len(), 0);
    assert_eq!(report.stale.len(), 1);
    assert!(!report.clean());
}

#[test]
fn json_rendering_is_wellformed_enough() {
    let src = "pub fn f() { panic!(\"with \\\"quotes\\\" and\\ttabs\") }\n";
    let findings = check_file("crates/phylo/src/fixture.rs", src);
    let report = xlint::Baseline::parse("").apply(findings);
    let json = xlint::render_json(&report);
    assert!(json.contains("\"rule\": \"panic-freedom\""));
    // The snippet's `\"` must arrive as escaped-backslash + escaped-quote.
    assert!(json.contains(r#"\\\"quotes\\\""#), "{json}");
    assert!(!json.contains('\t'), "tabs must be escaped: {json}");
}
