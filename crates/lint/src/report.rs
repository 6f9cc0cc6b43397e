//! Finding representation and the text / JSON / GitHub-annotation reporters.
//!
//! The `--json` schema (stable; hand-rolled because the auditor is
//! dependency-free by design):
//!
//! ```json
//! {
//!   "findings": [
//!     {"rule": "...", "path": "...", "line": 0, "col": 0, "message": "..."}
//!   ],
//!   "files_scanned": 0,
//!   "finding_count": 0
//! }
//! ```
//!
//! `line`/`col` are 1-based; `0` means "file-level" / "unknown column".
//! Findings are always sorted by `(path, line, col, rule)` and paths are
//! always workspace-relative, regardless of `--root`, so output is
//! byte-identical across machines and invocation directories.

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (e.g. `float-determinism`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the finding (0 when the finding is file-level).
    pub line: usize,
    /// 1-based column of the finding (0 when only the line is known).
    pub col: usize,
    /// Human-readable description of the violation and how to fix it.
    pub message: String,
}

impl Finding {
    /// The conventional one-line text rendering
    /// (`path:line:col: [rule] msg`, dropping unknown positions).
    pub fn render(&self) -> String {
        match (self.line, self.col) {
            (0, _) => format!("{}: [{}] {}", self.path, self.rule, self.message),
            (line, 0) => format!("{}:{}: [{}] {}", self.path, line, self.rule, self.message),
            (line, col) => format!(
                "{}:{}:{}: [{}] {}",
                self.path, line, col, self.rule, self.message
            ),
        }
    }

    /// The GitHub Actions workflow-command rendering, so CI findings
    /// surface as inline annotations on the PR diff.
    pub fn render_github(&self) -> String {
        let mut out = format!("::error file={},line={}", self.path, self.line.max(1));
        if self.col > 0 {
            out.push_str(&format!(",col={}", self.col));
        }
        out.push_str(&format!(
            ",title=xcc-lint {}::{}",
            self.rule,
            github_escape(&self.message)
        ));
        out
    }
}

/// Escapes a workflow-command message (data after `::`): `%`, `\r`, `\n`.
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Renders findings as a JSON document (hand-rolled: the auditor is
/// dependency-free by design, including the vendored serde shims).
pub fn to_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (idx, f) in findings.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": {}, ", json_str(f.rule)));
        out.push_str(&format!("\"path\": {}, ", json_str(&f.path)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"col\": {}, ", f.col));
        out.push_str(&format!("\"message\": {}", json_str(&f.message)));
        out.push('}');
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"finding_count\": {}\n", findings.len()));
    out.push_str("}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let findings = vec![Finding {
            rule: "float-determinism",
            path: "crates/sim/src/time.rs".into(),
            line: 3,
            col: 9,
            message: "say \"no\" to\nfloats".into(),
        }];
        let json = to_json(&findings, 7);
        assert!(json.contains("\"rule\": \"float-determinism\""));
        assert!(json.contains("\"col\": 9"));
        assert!(json.contains("\\\"no\\\" to\\nfloats"));
        assert!(json.contains("\"files_scanned\": 7"));
        assert!(json.contains("\"finding_count\": 1"));
    }

    #[test]
    fn render_includes_positions_only_when_known() {
        let full = Finding {
            rule: "value-detour",
            path: "a.rs".into(),
            line: 9,
            col: 4,
            message: "m".into(),
        };
        assert_eq!(full.render(), "a.rs:9:4: [value-detour] m");
        let line_only = Finding {
            col: 0,
            ..full.clone()
        };
        assert_eq!(line_only.render(), "a.rs:9: [value-detour] m");
        let file_level = Finding {
            line: 0,
            col: 0,
            ..full
        };
        assert_eq!(file_level.render(), "a.rs: [value-detour] m");
    }

    #[test]
    fn github_rendering_escapes_newlines_and_pins_line() {
        let f = Finding {
            rule: "dead-knob",
            path: "crates/core/src/config.rs".into(),
            line: 0,
            col: 0,
            message: "100% dead\nknob".into(),
        };
        assert_eq!(
            f.render_github(),
            "::error file=crates/core/src/config.rs,line=1,title=xcc-lint \
             dead-knob::100%25 dead%0Aknob"
        );
        let with_col = Finding {
            line: 12,
            col: 5,
            message: "m".into(),
            ..f
        };
        assert_eq!(
            with_col.render_github(),
            "::error file=crates/core/src/config.rs,line=12,col=5,title=xcc-lint dead-knob::m"
        );
    }
}
