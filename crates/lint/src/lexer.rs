//! A hand-rolled, comment- and string-aware scanner for Rust source text.
//!
//! There is no `rustc` or `syn` available in this environment (crates.io is
//! unreachable), so the rules operate on a *scrubbed* view of each file:
//! every comment and every string/char literal is replaced by spaces of the
//! same length, preserving line and column positions exactly. Token words
//! found in the scrubbed text are therefore real code tokens, never prose in
//! a doc comment or a name inside a format string.
//!
//! The scanner also collects the pieces the rules need from the non-code
//! channels: comment text (for `xcc-lint: allow(...)` suppressions) and
//! string-literal values (for the registry/docs cross-checks).

use std::cell::Cell;

/// One string literal found in the source: where its opening quote sits in
/// the scrubbed text, and its raw (unescaped) contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringLit {
    /// 1-based line of the opening quote.
    pub line: usize,
    /// 0-based byte column of the opening quote on that line.
    pub col: usize,
    /// The raw text between the quotes (escape sequences left as written).
    pub value: String,
}

/// An `xcc-lint: allow(rule, reason = "...")` suppression comment.
#[derive(Debug)]
pub struct Suppression {
    /// 1-based line the comment starts on. The suppression covers findings
    /// on this line and on the immediately following line.
    pub line: usize,
    /// The rule name inside `allow(...)`.
    pub rule: String,
    /// The mandatory `reason = "..."` text, if present and non-empty.
    pub reason: Option<String>,
    /// Set when the comment matched the `xcc-lint:` marker but could not be
    /// parsed as a well-formed `allow(rule, reason = "...")`.
    pub malformed: bool,
    /// Marked by the rule engine when the suppression absorbed a finding.
    pub used: Cell<bool>,
}

/// The scrubbed view of one source file.
#[derive(Debug)]
pub struct Scrubbed {
    /// One entry per source line: code with comments and literal contents
    /// blanked to spaces (quote characters are kept, so literals remain
    /// visible as `""`).
    pub code: Vec<String>,
    /// Every string literal (normal and raw), in source order.
    pub strings: Vec<StringLit>,
    /// Parsed `xcc-lint:` suppression comments.
    pub suppressions: Vec<Suppression>,
    /// Per-line flag: true when the line sits inside a `#[cfg(test)]` or
    /// `#[test]` item (the line numbering is 1-based; index 0 is unused).
    pub test_lines: Vec<bool>,
}

impl Scrubbed {
    /// Scans `source` into its scrubbed representation.
    pub fn scan(source: &str) -> Scrubbed {
        let bytes = source.as_bytes();
        let mut code_lines: Vec<String> = Vec::new();
        let mut comments: Vec<(usize, String)> = Vec::new();
        let mut strings: Vec<StringLit> = Vec::new();
        let mut line_buf = String::new();
        let mut line_no = 1usize;
        let mut i = 0usize;

        // Appends one source character to the current scrubbed line, blanked
        // or verbatim, tracking line breaks.
        macro_rules! emit {
            ($ch:expr, $blank:expr) => {{
                let ch: char = $ch;
                if ch == '\n' {
                    code_lines.push(std::mem::take(&mut line_buf));
                    line_no += 1;
                } else if $blank {
                    line_buf.push(' ');
                } else {
                    line_buf.push(ch);
                }
            }};
        }

        let char_at = |idx: usize| -> Option<char> { source[idx..].chars().next() };

        while i < bytes.len() {
            let rest = &source[i..];
            // A literal prefix (`r`, `b`, `br`) only starts a literal when it
            // is not the tail of a longer identifier (e.g. `attr"` or `var"`).
            let at_word_start = i == 0 || !is_word_byte(bytes[i - 1]);
            if rest.starts_with("//") {
                // Line comment (incl. doc comments): runs to end of line.
                let end = rest.find('\n').map(|n| i + n).unwrap_or(bytes.len());
                comments.push((line_no, source[i..end].to_string()));
                for ch in source[i..end].chars() {
                    emit!(ch, true);
                }
                i = end;
            } else if rest.starts_with("/*") {
                // Block comment; Rust block comments nest.
                let start_line = line_no;
                let mut depth = 0usize;
                let mut j = i;
                while j < bytes.len() {
                    let r = &source[j..];
                    if r.starts_with("/*") {
                        depth += 1;
                        j += 2;
                    } else if r.starts_with("*/") {
                        depth -= 1;
                        j += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        j += r.chars().next().map(char::len_utf8).unwrap_or(1);
                    }
                }
                comments.push((start_line, source[i..j.min(bytes.len())].to_string()));
                for ch in source[i..j.min(bytes.len())].chars() {
                    emit!(ch, true);
                }
                i = j.min(bytes.len());
            } else if let Some(hashes) = raw_string_start(rest).filter(|_| at_word_start) {
                // Raw string: r"..." / r#"..."# / br#"..."# — no escapes.
                let prefix_len = rest.find('"').unwrap_or(0) + 1;
                let start_line = line_no;
                let start_col = line_buf.len() + prefix_len - 1;
                let closer = format!("\"{}", "#".repeat(hashes));
                let body_start = i + prefix_len;
                let end = source[body_start..]
                    .find(&closer)
                    .map(|n| body_start + n)
                    .unwrap_or(bytes.len());
                strings.push(StringLit {
                    line: start_line,
                    col: start_col,
                    value: source[body_start..end].to_string(),
                });
                for ch in source[i..body_start].chars() {
                    emit!(ch, false);
                }
                for ch in source[body_start..end].chars() {
                    emit!(ch, true);
                }
                let close_end = (end + closer.len()).min(bytes.len());
                for ch in source[end..close_end].chars() {
                    emit!(ch, false);
                }
                i = close_end;
            } else if rest.starts_with('"') || (rest.starts_with("b\"") && at_word_start) {
                // Normal (possibly byte) string with escapes.
                let quote_off = if rest.starts_with('"') { 0 } else { 1 };
                let start_line = line_no;
                let start_col = line_buf.len() + quote_off;
                for ch in source[i..i + quote_off + 1].chars() {
                    emit!(ch, false);
                }
                let mut j = i + quote_off + 1;
                let body_start = j;
                while j < bytes.len() {
                    match char_at(j) {
                        Some('\\') => {
                            // Skip the escape and the escaped char.
                            emit!('\\', true);
                            j += 1;
                            if let Some(c) = char_at(j) {
                                emit!(c, true);
                                j += c.len_utf8();
                            }
                        }
                        Some('"') => break,
                        Some(c) => {
                            emit!(c, true);
                            j += c.len_utf8();
                        }
                        None => break,
                    }
                }
                strings.push(StringLit {
                    line: start_line,
                    col: start_col,
                    value: source[body_start..j.min(bytes.len())].to_string(),
                });
                if j < bytes.len() {
                    emit!('"', false);
                    j += 1;
                }
                i = j;
            } else if rest.starts_with('\'') && is_char_literal(rest) {
                // Char literal (as opposed to a lifetime).
                emit!('\'', false);
                let mut j = i + 1;
                while j < bytes.len() {
                    match char_at(j) {
                        Some('\\') => {
                            emit!('\\', true);
                            j += 1;
                            if let Some(c) = char_at(j) {
                                emit!(c, true);
                                j += c.len_utf8();
                            }
                        }
                        Some('\'') => {
                            emit!('\'', false);
                            j += 1;
                            break;
                        }
                        Some(c) => {
                            emit!(c, true);
                            j += c.len_utf8();
                        }
                        None => break,
                    }
                }
                i = j;
            } else {
                let ch = char_at(i).unwrap_or(' ');
                emit!(ch, false);
                i += ch.len_utf8();
            }
        }
        code_lines.push(line_buf);

        let suppressions = comments
            .iter()
            .filter_map(|(line, text)| parse_suppression(*line, text))
            .collect();
        let test_lines = mark_test_lines(&code_lines);
        Scrubbed {
            code: code_lines,
            strings,
            suppressions,
            test_lines,
        }
    }

    /// Whether 1-based `line` lies inside a `#[cfg(test)]` / `#[test]` item.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }

    /// The suppression covering 1-based `line` for `rule`, if any: either a
    /// trailing comment on the line itself or a comment on the line above.
    pub fn suppression_for(&self, rule: &str, line: usize) -> Option<&Suppression> {
        self.suppressions
            .iter()
            .find(|s| s.rule == rule && (s.line == line || s.line + 1 == line))
    }
}

/// Detects `r"`, `r#"`, `br##"`, … at the start of `rest`; returns the hash
/// count of the delimiter.
fn raw_string_start(rest: &str) -> Option<usize> {
    let after_prefix = rest.strip_prefix("br").or_else(|| rest.strip_prefix('r'))?;
    let hashes = after_prefix.len() - after_prefix.trim_start_matches('#').len();
    after_prefix[hashes..].starts_with('"').then_some(hashes)
}

/// Distinguishes `'a'` / `'\n'` (char literals) from `'a` (lifetimes).
fn is_char_literal(rest: &str) -> bool {
    let mut chars = rest.chars();
    let _quote = chars.next();
    match chars.next() {
        Some('\\') => true,
        Some(_) => chars.next() == Some('\''),
        None => false,
    }
}

/// Parses one comment in the suppression form: the `xcc-lint:` marker,
/// followed by `allow(rule, reason = "...")`. The marker must open the
/// comment (directly after `//`, `///`, `//!`, `/*` and whitespace) so that
/// prose *describing* the syntax, like this doc comment, is not parsed.
fn parse_suppression(line: usize, text: &str) -> Option<Suppression> {
    let mut lead = text.trim_start();
    for prefix in ["//!", "///", "//", "/*", "*"] {
        if let Some(stripped) = lead.strip_prefix(prefix) {
            lead = stripped;
            break;
        }
    }
    let body = lead.trim_start().strip_prefix("xcc-lint:")?.trim_start();
    let malformed = |why: &str| {
        Suppression {
            line,
            rule: String::new(),
            reason: None,
            malformed: true,
            used: Cell::new(false),
            // `why` is folded into the rule field so the report can show it.
        }
        .with_rule(why)
    };
    let Some(args) = body.strip_prefix("allow(") else {
        return Some(malformed("expected `allow(rule, reason = \"...\")`"));
    };
    // Find the closing paren, ignoring any inside the quoted reason text
    // (reasons like "O(1) lookup" are legitimate).
    let mut close = None;
    let mut in_string = false;
    for (pos, ch) in args.char_indices() {
        match ch {
            '"' => in_string = !in_string,
            ')' if !in_string => {
                close = Some(pos);
                break;
            }
            _ => {}
        }
    }
    let Some(close) = close else {
        return Some(malformed("unclosed `allow(`"));
    };
    let args = &args[..close];
    let (rule, rest) = match args.split_once(',') {
        Some((rule, rest)) => (rule.trim(), rest.trim()),
        None => (args.trim(), ""),
    };
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
        return Some(malformed("missing or malformed rule name"));
    }
    let reason = rest
        .strip_prefix("reason")
        .map(|r| r.trim_start())
        .and_then(|r| r.strip_prefix('='))
        .map(|r| r.trim())
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.rfind('"').map(|end| r[..end].trim().to_string()))
        .filter(|r| !r.is_empty());
    Some(Suppression {
        line,
        rule: rule.to_string(),
        reason,
        malformed: false,
        used: Cell::new(false),
    })
}

impl Suppression {
    fn with_rule(mut self, note: &str) -> Suppression {
        self.rule = note.to_string();
        self
    }
}

/// Marks every line belonging to a `#[cfg(test)]` or `#[test]` item. The
/// item an attribute covers runs to the matching `}` of its first `{`, or to
/// the first `;` when no brace opens first (e.g. `#[cfg(test)] use …;`).
fn mark_test_lines(code: &[String]) -> Vec<bool> {
    // Work on a flattened copy with line starts recorded.
    let mut flat = String::new();
    let mut line_starts = Vec::with_capacity(code.len());
    for line in code {
        line_starts.push(flat.len());
        flat.push_str(line);
        flat.push('\n');
    }
    let line_of = |pos: usize| -> usize {
        match line_starts.binary_search(&pos) {
            Ok(idx) => idx + 1,
            Err(idx) => idx, // idx is 1-based line because starts are sorted
        }
    };

    let mut test = vec![false; code.len() + 1];
    let bytes = flat.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'#' {
            i += 1;
            continue;
        }
        // Capture the attribute `#[...]` (brackets may nest).
        let mut j = i + 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != b'[' {
            i += 1;
            continue;
        }
        let attr_start = j;
        let mut depth = 0usize;
        while j < bytes.len() {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let attr: String = flat[attr_start..j.min(flat.len())]
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        let is_test_attr = attr == "[test]"
            || attr.starts_with("[cfg(test")
            || (attr.starts_with("[cfg(")
                && (attr.contains("(test,") || attr.contains(",test)") || attr.contains(",test,")));
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip trailing attributes, then extend to the end of the item.
        let item_start = i;
        let mut k = j;
        let mut brace_depth = 0usize;
        let mut end = flat.len();
        while k < bytes.len() {
            match bytes[k] {
                b'{' => brace_depth += 1,
                b'}' => {
                    brace_depth -= 1;
                    if brace_depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                b';' if brace_depth == 0 => {
                    end = k + 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let (first, last) = (line_of(item_start), line_of(end.saturating_sub(1)));
        for line in test.iter_mut().take(last + 1).skip(first) {
            *line = true;
        }
        i = end;
    }
    test
}

/// Positions (1-based line, 0-based col) of `word` as a whole word in the
/// scrubbed code.
pub fn word_occurrences(code: &[String], word: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (idx, line) in code.iter().enumerate() {
        let mut from = 0usize;
        while let Some(pos) = line[from..].find(word) {
            let at = from + pos;
            let before_ok = at == 0 || !is_word_byte(line.as_bytes()[at - 1]);
            let end = at + word.len();
            let after_ok = end >= line.len() || !is_word_byte(line.as_bytes()[end]);
            if before_ok && after_ok {
                out.push((idx + 1, at));
            }
            from = end;
        }
    }
    out
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_string_contents_but_keeps_positions() {
        let s = Scrubbed::scan("let x = \"HashMap inside\";\nlet y = HashMap::new();\n");
        assert!(
            !s.code[0].contains("HashMap"),
            "literal contents must be blanked"
        );
        assert_eq!(s.code[0].len(), "let x = \"HashMap inside\";".len());
        assert_eq!(word_occurrences(&s.code, "HashMap"), vec![(2, 8)]);
        assert_eq!(s.strings.len(), 1);
        assert_eq!(s.strings[0].value, "HashMap inside");
        assert_eq!(s.strings[0].line, 1);
    }

    #[test]
    fn handles_escapes_inside_strings() {
        let s = Scrubbed::scan(r#"let x = "quote \" then HashMap"; Instant"#);
        assert_eq!(s.strings[0].value, r#"quote \" then HashMap"#);
        assert_eq!(word_occurrences(&s.code, "HashMap"), vec![]);
        assert_eq!(word_occurrences(&s.code, "Instant").len(), 1);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = "let x = r#\"no \"escape\" HashSet\"#;\nHashSet::new();\n";
        let s = Scrubbed::scan(src);
        assert_eq!(s.strings[0].value, "no \"escape\" HashSet");
        assert_eq!(word_occurrences(&s.code, "HashSet"), vec![(2, 0)]);
    }

    #[test]
    fn identifier_ending_in_r_or_b_is_not_a_literal_prefix() {
        let s = Scrubbed::scan("let var = attr; let sub = 1; \"lit\"");
        assert_eq!(word_occurrences(&s.code, "attr").len(), 1);
        assert_eq!(s.strings.len(), 1);
        assert_eq!(s.strings[0].value, "lit");
    }

    #[test]
    fn line_and_nested_block_comments_are_blanked() {
        let src =
            "// HashMap in a line comment\n/* outer /* nested SystemTime */ still */\nInstant\n";
        let s = Scrubbed::scan(src);
        assert!(word_occurrences(&s.code, "HashMap").is_empty());
        assert!(word_occurrences(&s.code, "SystemTime").is_empty());
        assert_eq!(word_occurrences(&s.code, "Instant"), vec![(3, 0)]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let s = Scrubbed::scan("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        // The lifetime must survive as code; the char contents are blanked.
        assert!(s.code[0].contains("<'a>"));
        assert!(!s.code[0].contains("'x'"));
    }

    #[test]
    fn suppression_parses_rule_and_reason() {
        let src = "// xcc-lint: allow(float-determinism, reason = \"report only\")\npub fn ratio() -> f64;\n";
        let s = Scrubbed::scan(src);
        assert_eq!(s.suppressions.len(), 1);
        let supp = &s.suppressions[0];
        assert_eq!(supp.rule, "float-determinism");
        assert_eq!(supp.reason.as_deref(), Some("report only"));
        assert!(!supp.malformed);
        assert!(s.suppression_for("float-determinism", 2).is_some());
        assert!(s.suppression_for("float-determinism", 3).is_none());
        assert!(s.suppression_for("value-detour", 2).is_none());
    }

    #[test]
    fn suppression_reason_may_contain_parens() {
        let s = Scrubbed::scan(
            "// xcc-lint: allow(float-determinism, reason = \"O(1) lookups (never iterated)\")\n",
        );
        assert_eq!(s.suppressions.len(), 1);
        assert_eq!(
            s.suppressions[0].reason.as_deref(),
            Some("O(1) lookups (never iterated)")
        );
    }

    #[test]
    fn suppression_without_reason_and_malformed() {
        let s = Scrubbed::scan("// xcc-lint: allow(value-detour)\n// xcc-lint: deny(everything)\n");
        assert_eq!(s.suppressions.len(), 2);
        assert_eq!(s.suppressions[0].rule, "value-detour");
        assert!(s.suppressions[0].reason.is_none());
        assert!(!s.suppressions[0].malformed);
        assert!(s.suppressions[1].malformed);
    }

    #[test]
    fn test_regions_cover_cfg_test_modules_and_test_fns() {
        let src = "pub fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n    #[test]\n    fn t() { y.unwrap(); }\n}\n\
                   pub fn lib2() {}\n";
        let s = Scrubbed::scan(src);
        assert!(!s.is_test_line(1));
        assert!(s.is_test_line(2));
        assert!(s.is_test_line(5));
        assert!(s.is_test_line(6));
        assert!(!s.is_test_line(7));
    }

    #[test]
    fn cfg_any_test_is_a_test_region() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nfn helper() { a.unwrap(); }\nfn lib() {}\n";
        let s = Scrubbed::scan(src);
        assert!(s.is_test_line(2));
        assert!(!s.is_test_line(3));
    }

    #[test]
    fn unterminated_string_does_not_panic() {
        let s = Scrubbed::scan("let x = \"never closed...");
        assert_eq!(s.strings.len(), 1);
        assert_eq!(s.strings[0].value, "never closed...");
    }
}
