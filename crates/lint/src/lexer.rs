//! A hand-rolled, comment- and string-aware scanner for Rust source text.
//!
//! There is no `rustc` or `syn` available in this environment (crates.io is
//! unreachable), so the dead-surface check reads a *scrubbed* view of each file:
//! every comment and every string/char literal is replaced by spaces of the
//! same length, preserving line and column positions exactly. Token words
//! found in the scrubbed text are therefore real code tokens, never prose in
//! a doc comment or a name inside a format string.

/// The scrubbed view of one source file.
#[derive(Debug)]
pub struct Scrubbed {
    /// One entry per source line: code with comments and literal contents
    /// blanked to spaces (quote characters are kept, so literals remain
    /// visible as `""`).
    pub code: Vec<String>,
    /// Per-line flag: true when the line sits inside a `#[cfg(test)]` or
    /// `#[test]` item (the line numbering is 1-based; index 0 is unused).
    pub test_lines: Vec<bool>,
}

impl Scrubbed {
    /// Scans `source` into its scrubbed representation.
    pub fn scan(source: &str) -> Scrubbed {
        let bytes = source.as_bytes();
        let mut code_lines: Vec<String> = Vec::new();
        let mut line_buf = String::new();
        let mut i = 0usize;

        // Appends one source character to the current scrubbed line, blanked
        // or verbatim, tracking line breaks.
        macro_rules! emit {
            ($ch:expr, $blank:expr) => {{
                let ch: char = $ch;
                if ch == '\n' {
                    code_lines.push(std::mem::take(&mut line_buf));
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
                for ch in source[i..end].chars() {
                    emit!(ch, true);
                }
                i = end;
            } else if rest.starts_with("/*") {
                // Block comment; Rust block comments nest.
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
                for ch in source[i..j.min(bytes.len())].chars() {
                    emit!(ch, true);
                }
                i = j.min(bytes.len());
            } else if let Some(hashes) = raw_string_start(rest).filter(|_| at_word_start) {
                // Raw string: r"..." / r#"..."# / br#"..."# — no escapes.
                let prefix_len = rest.find('"').unwrap_or(0) + 1;
                let closer = format!("\"{}", "#".repeat(hashes));
                let body_start = i + prefix_len;
                let end = source[body_start..]
                    .find(&closer)
                    .map(|n| body_start + n)
                    .unwrap_or(bytes.len());
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
                for ch in source[i..i + quote_off + 1].chars() {
                    emit!(ch, false);
                }
                let mut j = i + quote_off + 1;
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

        let test_lines = mark_test_lines(&code_lines);
        Scrubbed {
            code: code_lines,
            test_lines,
        }
    }

    /// Whether 1-based `line` lies inside a `#[cfg(test)]` / `#[test]` item.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
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
    }

    #[test]
    fn handles_escapes_inside_strings() {
        let s = Scrubbed::scan(r#"let x = "quote \" then HashMap"; Instant"#);
        assert_eq!(word_occurrences(&s.code, "HashMap"), vec![]);
        assert_eq!(word_occurrences(&s.code, "Instant").len(), 1);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = "let x = r#\"no \"escape\" HashSet\"#;\nHashSet::new();\n";
        let s = Scrubbed::scan(src);
        let blank = " ".repeat("no \"escape\" HashSet".len());
        assert_eq!(s.code[0], format!("let x = r#\"{blank}\"#;"));
        assert_eq!(word_occurrences(&s.code, "HashSet"), vec![(2, 0)]);
    }

    #[test]
    fn identifier_ending_in_r_or_b_is_not_a_literal_prefix() {
        let s = Scrubbed::scan("let var = attr; let sub = 1; \"lit\"");
        assert_eq!(word_occurrences(&s.code, "attr").len(), 1);
        assert_eq!(s.code[0], "let var = attr; let sub = 1; \"   \"");
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
        assert_eq!(s.code, ["let x = \"               "]);
    }
}
