//! The determinism rules D1–D5 and the annotation grammar.
//!
//! Rules operate on the significant-token stream of one file (comments
//! and whitespace stripped, but line-mapped). Each rule is scoped by
//! the committed `detlint.toml` (crate lists / path prefixes /
//! path-level allowlists) and can be suppressed at a single site by an
//! inline annotation:
//!
//! ```text
//! // detlint: allow(D1, membership-only set; never iterated)
//! ```
//!
//! An annotation suppresses the named rule on its own line and on the
//! next line that contains code. The reason is mandatory — a reasonless
//! or malformed annotation is itself a finding (rule `A0`), so the
//! check gate also audits the escape hatch.

use crate::config::Config;
use crate::lexer::{lex, TokKind, Token};
use std::collections::BTreeMap;

/// All rule identifiers, in report order.
pub const RULE_IDS: [&str; 6] = ["D1", "D2", "D3", "D4", "D5", "A0"];

/// One-line human description of a rule, used in reports.
pub fn describe(rule: &str) -> &'static str {
    match rule {
        "D1" => "HashMap/HashSet in artifact-producing code (unordered iteration risk)",
        "D2" => "wall-clock read (Instant::now/SystemTime) outside allowlisted timing modules",
        "D3" => "ad-hoc threading/locking (thread::spawn, raw Mutex) outside the dispatch layer",
        "D4" => "bare float sum()/fold accumulation in a parallel-merge path",
        "D5" => "unwrap()/expect() in library-crate non-test code",
        "A0" => "malformed detlint annotation (missing reason or unknown rule)",
        _ => "unknown rule",
    }
}

/// One finding: a rule violated at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D1`..`D5`, `A0`).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// The offending source line, trimmed (truncated if very long).
    pub snippet: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {} — {}",
            self.path,
            self.line,
            self.col,
            self.rule,
            describe(self.rule),
            self.snippet
        )
    }
}

/// How a file participates in rule scoping, derived from its path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileClass {
    /// Crate name: `crates/<name>/...` → `<name>`, root `src/` or
    /// `tests/` → `nodeshare`, anything else → its first component.
    pub crate_name: String,
    /// Integration tests / benches / examples: rules that protect
    /// shipped artifacts do not apply to test-only code.
    pub is_test: bool,
    /// Binary roots (`src/bin/`, `src/main.rs`): D5 treats these as
    /// application code, not library code.
    pub is_bin: bool,
}

/// Classifies a workspace-relative, `/`-separated path.
pub fn classify(path: &str) -> FileClass {
    let crate_name = if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("").to_string()
    } else if path.starts_with("src/") || path.starts_with("tests/") {
        "nodeshare".to_string()
    } else {
        path.split('/').next().unwrap_or("").to_string()
    };
    let is_test = path.contains("/tests/")
        || path.starts_with("tests/")
        || path.contains("/benches/")
        || path.starts_with("examples/")
        || path.contains("/examples/");
    let is_bin = path.contains("/src/bin/") || path.ends_with("src/main.rs");
    FileClass {
        crate_name,
        is_test,
        is_bin,
    }
}

/// A parsed `// detlint: allow(RULE, reason)` annotation.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Allow {
    rule: String,
    line: u32,
    col: u32,
}

/// Scans one file and returns its findings in source order.
pub fn check_file(path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let class = classify(path);
    let tokens = lex(src);
    let sig: Vec<Token> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
            )
        })
        .copied()
        .collect();

    // Line → index (into `sig`) of that line's first significant token.
    let mut line_first: BTreeMap<u32, usize> = BTreeMap::new();
    for (i, t) in sig.iter().enumerate() {
        line_first.entry(t.line).or_insert(i);
    }

    let mut findings = Vec::new();
    let (allows, bad) = collect_annotations(src, &tokens);
    for a in &bad {
        findings.push(finding("A0", path, src, a.line, a.col));
    }
    // Rule → lines it is suppressed on: the annotation's own line plus
    // the next line holding code.
    let mut suppressed: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for a in &allows {
        let Some(rule) = RULE_IDS.iter().find(|r| **r == a.rule) else {
            continue; // unknown rules were already reported via `bad`
        };
        let entry = suppressed.entry(rule).or_default();
        entry.push(a.line);
        if let Some((&l, _)) = line_first.range(a.line + 1..).next() {
            entry.push(l);
        }
    }
    let allowed = |rule: &str, line: u32| {
        suppressed
            .get(rule)
            .is_some_and(|lines| lines.contains(&line))
    };

    let test_regions = cfg_test_regions(&sig, src);
    let in_test = |t: &Token| {
        class.is_test
            || test_regions
                .iter()
                .any(|&(s, e)| t.start >= s && t.start < e)
    };
    // `use` lines never execute; flagging both the import and the call
    // site would demand two annotations for one decision.
    let is_use_line = |t: &Token| {
        line_first.get(&t.line).is_some_and(|&i| {
            let first = sig[i].text(src);
            first == "use"
                || (first == "pub" && sig.get(i + 1).is_some_and(|n| n.text(src) == "use"))
        })
    };

    let in_scope = |rule: &str| {
        let rc = cfg.rule(rule);
        rc.enabled
            && (rc.crates.is_empty() || rc.crates.contains(&class.crate_name))
            && (rc.paths.is_empty() || rc.paths.iter().any(|p| path.starts_with(p.as_str())))
            && !rc.allow_paths.iter().any(|p| path.starts_with(p.as_str()))
    };
    let scoped: BTreeMap<&str, bool> = RULE_IDS.iter().map(|r| (*r, in_scope(r))).collect();

    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokKind::Ident && t.kind != TokKind::Punct {
            continue;
        }
        let text = t.text(src);
        // D1 — unordered collections in artifact-producing crates.
        if scoped["D1"]
            && (text == "HashMap" || text == "HashSet")
            && !in_test(t)
            && !is_use_line(t)
            && !statement_mentions(&sig, src, i, &SORTERS, true)
            && !allowed("D1", t.line)
        {
            findings.push(finding("D1", path, src, t.line, t.col));
        }
        // D2 — wall-clock reads.
        if scoped["D2"]
            && (text == "SystemTime"
                || (text == "Instant" && follows(&sig, src, i, &[":", ":", "now"])))
            && !in_test(t)
            && !is_use_line(t)
            && !allowed("D2", t.line)
        {
            findings.push(finding("D2", path, src, t.line, t.col));
        }
        // D3 — ad-hoc threading / locking.
        if scoped["D3"]
            && ((text == "thread" && follows(&sig, src, i, &[":", ":", "spawn"]))
                || text == "Mutex")
            && !in_test(t)
            && !is_use_line(t)
            && !allowed("D3", t.line)
        {
            findings.push(finding("D3", path, src, t.line, t.col));
        }
        // D4 — order-sensitive float accumulation in merge paths. A
        // statement that names an integer accumulator type is exempt;
        // everything else needs a sorted-input annotation.
        if scoped["D4"]
            && text == "."
            && sig
                .get(i + 1)
                .is_some_and(|n| n.text(src) == "sum" || n.text(src) == "fold")
            && !in_test(t)
            && !statement_mentions(&sig, src, i, &INT_EXEMPT, false)
            && !allowed("D4", sig[i + 1].line)
        {
            let n = &sig[i + 1];
            findings.push(finding("D4", path, src, n.line, n.col));
        }
        // D5 — panicking escape hatches in library code.
        if scoped["D5"]
            && text == "."
            && sig
                .get(i + 1)
                .is_some_and(|n| n.text(src) == "unwrap" || n.text(src) == "expect")
            && sig.get(i + 2).is_some_and(|n| n.text(src) == "(")
            && !class.is_bin
            && !in_test(t)
            && !propagated_call(&sig, src, i + 2)
            && !allowed("D5", sig[i + 1].line)
        {
            let n = &sig[i + 1];
            findings.push(finding("D5", path, src, n.line, n.col));
        }
    }
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

/// D1's "immediately sorted" escape hatch vocabulary.
const SORTERS: [&str; 8] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_by_cached_key",
    "BTreeMap",
    "BTreeSet",
];

/// D4's order-insensitive accumulator vocabulary: integer sums commute
/// exactly.
const INT_EXEMPT: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

fn finding(rule: &'static str, path: &str, src: &str, line: u32, col: u32) -> Finding {
    Finding {
        rule,
        path: path.to_string(),
        line,
        col,
        snippet: snippet_of(src, line),
    }
}

/// The trimmed text of a 1-based source line, capped for readability.
fn snippet_of(src: &str, line: u32) -> String {
    let text = src.lines().nth(line as usize - 1).unwrap_or("").trim();
    let mut s: String = text.chars().take(120).collect();
    if text.chars().count() > 120 {
        s.push('…');
    }
    s
}

/// Does `sig[i+1..]` spell exactly the given texts?
fn follows(sig: &[Token], src: &str, i: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, want)| sig.get(i + 1 + k).is_some_and(|t| t.text(src) == *want))
}

/// Whether the call whose `(` sits at `sig[open]` is immediately
/// followed by `?`. `Option::expect`/`Result::expect` return the bare
/// value, so `.expect(...)?` can only be a user-defined fallible
/// method (e.g. the report JSON parser's `expect(byte)`), not the
/// panicking std combinator D5 targets.
fn propagated_call(sig: &[Token], src: &str, open: usize) -> bool {
    let mut depth = 0i32;
    let mut j = open;
    while j < sig.len() {
        match punct_char(&sig[j], src) {
            Some('(') => depth += 1,
            Some(')') => {
                depth -= 1;
                if depth == 0 {
                    return sig.get(j + 1).is_some_and(|t| t.text(src) == "?");
                }
            }
            _ => {}
        }
        j += 1;
    }
    false
}

/// The character of a punct token.
fn punct_char(t: &Token, src: &str) -> Option<char> {
    if t.kind == TokKind::Punct {
        t.text(src).chars().next()
    } else {
        None
    }
}

/// Whether the statement around `sig[i]` mentions any of `words` as an
/// identifier. The statement spans from the previous `;`/`{`/`}` at
/// the site's own nesting depth through the matching forward boundary,
/// so multi-line iterator chains (closures included) count as one
/// statement. With `include_next`, the immediately following statement
/// is scanned too — the `let mut v = ...collect(); v.sort();` idiom
/// sorts on the next statement.
fn statement_mentions(
    sig: &[Token],
    src: &str,
    i: usize,
    words: &[&str],
    include_next: bool,
) -> bool {
    let lo = statement_start(sig, src, i);
    let mut hi = statement_end(sig, src, i);
    if include_next && punct_char(&sig[hi], src) == Some(';') && hi + 1 < sig.len() {
        hi = statement_end(sig, src, hi + 1);
    }
    sig[lo..=hi]
        .iter()
        .any(|t| t.kind == TokKind::Ident && words.contains(&t.text(src)))
}

/// Walks backward from `i` to the previous statement boundary.
fn statement_start(sig: &[Token], src: &str, i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j > 0 {
        match punct_char(&sig[j - 1], src) {
            Some('}') | Some(')') | Some(']') => depth += 1,
            Some('{') | Some('(') | Some('[') => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            // A depth-0 comma separates struct fields / match arms /
            // call arguments — each is judged on its own.
            Some(';') | Some(',') if depth == 0 => return j,
            _ => {}
        }
        j -= 1;
    }
    0
}

/// Walks forward from `i` to the next statement boundary.
fn statement_end(sig: &[Token], src: &str, i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j + 1 < sig.len() {
        j += 1;
        match punct_char(&sig[j], src) {
            Some('{') | Some('(') | Some('[') => depth += 1,
            Some('}') | Some(')') | Some(']') => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            Some(';') | Some(',') if depth == 0 => return j,
            _ => {}
        }
    }
    sig.len() - 1
}

/// Byte ranges of items gated behind `#[cfg(test)]`: the attribute
/// sequence `# [ cfg ( test ) ]` followed by an item, whose extent is
/// the matching `}` of its first block (or the terminating `;`).
fn cfg_test_regions(sig: &[Token], src: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        if sig[i].text(src) == "#" && follows(sig, src, i, &["[", "cfg", "(", "test", ")", "]"]) {
            // Skip past this attribute and any further attributes
            // (`#[test]`, `#[allow(...)]`, ...) before the item.
            let mut j = i + 7;
            while sig.get(j).is_some_and(|t| t.text(src) == "#")
                && sig.get(j + 1).is_some_and(|t| t.text(src) == "[")
            {
                let mut depth = 0i32;
                j += 1;
                while j < sig.len() {
                    match punct_char(&sig[j], src) {
                        Some('[') => depth += 1,
                        Some(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
            }
            // The item runs to its first top-level `;` or the matching
            // `}` of its first `{`.
            let item_start = sig.get(j).map_or(src.len(), |t| t.start);
            let mut depth = 0i32;
            let mut end = src.len();
            while j < sig.len() {
                match punct_char(&sig[j], src) {
                    Some('{') => depth += 1,
                    Some('}') => {
                        depth -= 1;
                        if depth == 0 {
                            end = sig[j].end;
                            break;
                        }
                    }
                    Some(';') if depth == 0 => {
                        end = sig[j].end;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            regions.push((item_start, end));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// Extracts `detlint: allow(RULE, reason)` annotations from comments.
/// Returns (well-formed, malformed) lists.
fn collect_annotations(src: &str, tokens: &[Token]) -> (Vec<Allow>, Vec<Allow>) {
    let mut good = Vec::new();
    let mut bad = Vec::new();
    for t in tokens {
        if t.kind != TokKind::LineComment && t.kind != TokKind::BlockComment {
            continue;
        }
        let body = t.text(src);
        // Doc comments are prose — only plain `//` / `/*` comments
        // carry directives, so documentation may quote the syntax.
        if body.starts_with("///")
            || body.starts_with("//!")
            || body.starts_with("/**")
            || body.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = body.find("detlint:") else {
            continue;
        };
        let rest = body[at + "detlint:".len()..].trim_start();
        // Prose that merely mentions "detlint:" without an `allow(`
        // directly after is not an annotation attempt.
        if !rest.starts_with("allow") {
            continue;
        }
        let allow = |rule: String| Allow {
            rule,
            line: t.line,
            col: t.col,
        };
        match parse_allow(rest) {
            Some((rule, reason))
                if RULE_IDS.contains(&rule.as_str()) && rule != "A0" && !reason.is_empty() =>
            {
                good.push(allow(rule));
            }
            Some((rule, _)) => bad.push(allow(rule)),
            None => bad.push(allow(String::new())),
        }
    }
    (good, bad)
}

/// Parses `allow(RULE, reason...)` → `(RULE, reason)`.
fn parse_allow(text: &str) -> Option<(String, String)> {
    let inner = text.strip_prefix("allow")?.trim_start().strip_prefix('(')?;
    let close = inner.rfind(')')?;
    let inner = &inner[..close];
    let (rule, reason) = match inner.find(',') {
        Some(c) => (&inner[..c], inner[c + 1..].trim()),
        None => (inner, ""),
    };
    let reason = reason.trim_matches('"').trim();
    Some((rule.trim().to_string(), reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;

    fn cfg_all() -> Config {
        config::parse(
            r#"
version = 1
[rules.D1]
[rules.D2]
[rules.D3]
[rules.D4]
[rules.D5]
"#,
        )
        .expect("test config parses")
    }

    fn rules_at(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        check_file(path, src, &cfg_all())
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn d1_flags_and_annotation_suppresses() {
        let src = "fn f() {\n    let m = std::collections::HashMap::new();\n}\n";
        assert_eq!(rules_at("crates/engine/src/x.rs", src), [("D1", 2)]);
        let src = "fn f() {\n    // detlint: allow(D1, lookup-only map)\n    let m = std::collections::HashMap::new();\n}\n";
        assert_eq!(rules_at("crates/engine/src/x.rs", src), []);
    }

    #[test]
    fn d1_sorted_statement_is_exempt() {
        let src = "fn f(m: &std::collections::HashMap<u32, u32>) {\n    let mut v: Vec<_> = m.keys().collect();\n    v.sort();\n}\n";
        // The declaration line mentions HashMap inside the fn signature
        // statement, which also has no sort — but the type position is
        // a parameter; the statement scan runs to the `{`.
        let hits = rules_at("crates/engine/src/x.rs", src);
        assert_eq!(hits, [("D1", 1)]);
        // Sorting on the next statement exempts (collect-then-sort
        // idiom). Note the scan treats depth-0 commas as statement
        // boundaries (so struct fields are judged individually), which
        // means a multi-parameter turbofish truncates the scan — such
        // sites should carry an annotation instead.
        let src = "fn f() {\n    let mut v: Vec<_> = std::collections::HashSet::<u32>::new().into_iter().collect::<Vec<_>>(); v.sort();\n}\n";
        assert_eq!(rules_at("crates/engine/src/x.rs", src), []);
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn g() { let m = HashMap::<u32, u32>::new(); let _ = m; }\n}\n";
        assert_eq!(rules_at("crates/engine/src/x.rs", src), []);
    }

    #[test]
    fn d2_matches_instant_now_but_not_instant_type() {
        let src = "fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
        assert_eq!(rules_at("crates/engine/src/x.rs", src), [("D2", 2)]);
    }

    #[test]
    fn d5_skips_bins_tests_and_use_lines() {
        let src = "fn f() {\n    let v: Option<u32> = None;\n    v.unwrap();\n}\n";
        assert_eq!(rules_at("crates/engine/src/x.rs", src), [("D5", 3)]);
        assert_eq!(rules_at("crates/engine/src/bin/tool.rs", src), []);
        assert_eq!(rules_at("crates/engine/tests/t.rs", src), []);
    }

    #[test]
    fn a0_on_missing_reason_or_unknown_rule() {
        let src = "// detlint: allow(D1)\nfn f() {}\n";
        assert_eq!(rules_at("crates/engine/src/x.rs", src), [("A0", 1)]);
        let src = "// detlint: allow(D9, because)\nfn f() {}\n";
        assert_eq!(rules_at("crates/engine/src/x.rs", src), [("A0", 1)]);
    }

    #[test]
    fn scoping_by_crate_and_allow_path() {
        let mut cfg = cfg_all();
        cfg.rules.get_mut("D1").expect("D1 present").crates = vec!["engine".into()];
        let src = "fn f() { let m = std::collections::HashMap::<u32, u32>::new(); let _ = m; }\n";
        assert_eq!(check_file("crates/engine/src/x.rs", src, &cfg).len(), 1);
        assert_eq!(check_file("crates/slurm/src/x.rs", src, &cfg).len(), 0);
        cfg.rules.get_mut("D1").expect("D1 present").allow_paths =
            vec!["crates/engine/src/x.rs".into()];
        assert_eq!(check_file("crates/engine/src/x.rs", src, &cfg).len(), 0);
    }
}
