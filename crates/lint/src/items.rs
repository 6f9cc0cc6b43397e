//! The workspace item graph: a structural view of every scanned source file,
//! parsed from the scrubbed token stream (no `syn`, no `rustc` — the same
//! dependency-free discipline as [`crate::lexer`]).
//!
//! Where the lexer answers "is this word real code?", the item graph answers
//! "what item does this word belong to?": structs with their named fields,
//! enums with their variants, `impl` blocks with their method signatures and
//! bodies, and the match arms inside a body. The cross-crate rules (K1
//! dead-knob, C1 uncosted-rpc) are written against this graph instead of
//! raw token positions, so they survive reformatting and follow items when
//! they move between files.
//!
//! The parser is deliberately shallow: it tracks brace/bracket/paren depth
//! and word boundaries, not the full grammar. That is enough to recover
//! item extents and names exactly for the workspace's (rustfmt-formatted)
//! style, and degrades to *missing items* — never wrong ones — on exotic
//! code, which the rules treat as "nothing to check".

use crate::lexer::Scrubbed;

/// Scrubbed code joined into one string with line-start offsets, so byte
/// positions map back to 1-based lines.
pub struct Flat {
    /// The flattened scrubbed code, newline-separated.
    pub text: String,
    /// Byte offset of the start of each line.
    pub starts: Vec<usize>,
}

impl Flat {
    /// Flattens per-line scrubbed code.
    pub fn new(code: &[String]) -> Flat {
        let mut text = String::new();
        let mut starts = Vec::with_capacity(code.len());
        for line in code {
            starts.push(text.len());
            text.push_str(line);
            text.push('\n');
        }
        Flat { text, starts }
    }

    /// The 1-based line containing byte position `pos`.
    pub fn line_of(&self, pos: usize) -> usize {
        match self.starts.binary_search(&pos) {
            Ok(idx) => idx + 1,
            Err(idx) => idx,
        }
    }
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whole-word occurrences of `word` in `text` (byte positions).
pub fn word_positions(text: &str, word: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(word) {
        let at = from + pos;
        let end = at + word.len();
        let before_ok = at == 0 || !is_word_byte(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !is_word_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = end;
    }
    out
}

/// The next identifier at or after `from`, with its start position.
pub fn next_word(text: &str, from: usize) -> Option<(String, usize)> {
    let bytes = text.as_bytes();
    let mut i = from;
    while i < bytes.len() && !is_word_byte(bytes[i]) {
        i += 1;
    }
    let start = i;
    while i < bytes.len() && is_word_byte(bytes[i]) {
        i += 1;
    }
    (i > start).then(|| (text[start..i].to_string(), start))
}

/// The previous identifier strictly before `pos`.
pub fn prev_word(text: &str, pos: usize) -> Option<String> {
    let bytes = text.as_bytes();
    let mut end = pos;
    while end > 0 && !is_word_byte(bytes[end - 1]) {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_word_byte(bytes[start - 1]) {
        start -= 1;
    }
    (end > start).then(|| text[start..end].to_string())
}

/// Byte position just past the matching `}` for the `{` at `open`.
pub fn matching_brace(text: &str, open: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (off, &b) in bytes[open..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// One named field of a struct.
#[derive(Debug, Clone)]
pub struct Field {
    /// The field name.
    pub name: String,
    /// 1-based line of the field declaration.
    pub line: usize,
    /// Whether the field carries a `pub` (incl. `pub(crate)`) visibility.
    pub is_pub: bool,
}

/// A struct with named fields. Tuple and unit structs are not recorded —
/// no rule needs them, and their "fields" have no names to check.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// The named fields, in declaration order.
    pub fields: Vec<Field>,
}

/// One variant of an enum (payloads are not recorded).
#[derive(Debug, Clone)]
pub struct Variant {
    /// The variant name.
    pub name: String,
    /// 1-based line of the variant.
    pub line: usize,
}

/// An enum with its variants.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// The enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// The variants, in declaration order.
    pub variants: Vec<Variant>,
}

/// One function or method with a braced body.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the function is `pub` (incl. `pub(crate)`).
    pub is_pub: bool,
    /// The signature text from the name to the opening brace.
    pub signature: String,
    /// The body text including the outer braces.
    pub body: String,
}

impl FnItem {
    /// The 1-based file line of byte `offset` within [`FnItem::body`].
    /// Exact whenever the name sits on the same line as the `fn` keyword
    /// (always true for rustfmt output).
    pub fn body_line(&self, offset: usize) -> usize {
        let newlines = |s: &str| s.bytes().filter(|&b| b == b'\n').count();
        self.line + newlines(&self.signature) + newlines(&self.body[..offset.min(self.body.len())])
    }
}

/// An `impl` block: inherent (`impl Type`) or trait (`impl Trait for Type`).
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// The trait being implemented, if any (last path segment only).
    pub trait_name: Option<String>,
    /// The implementing type (last path segment, generics stripped).
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: usize,
    /// 1-based line of the closing brace.
    pub end_line: usize,
    /// The methods declared in the block.
    pub methods: Vec<FnItem>,
}

/// One `pattern => ...` arm of a `match` expression.
#[derive(Debug, Clone)]
pub struct MatchArm {
    /// The pattern text, whitespace-trimmed.
    pub pattern: String,
    /// Byte offset of the pattern within the searched text.
    pub offset: usize,
}

/// Everything the item parser recovered from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// The crate the file belongs to (`crates/<name>/…` → `<name>`;
    /// the umbrella `src`/`tests`/`examples` trees map to `workspace`).
    pub crate_name: String,
    /// The module path within the crate (`src/a/b.rs` → `a::b`).
    pub module_path: String,
    /// Structs with named fields.
    pub structs: Vec<StructItem>,
    /// Enums.
    pub enums: Vec<EnumItem>,
    /// Impl blocks with their methods.
    pub impls: Vec<ImplItem>,
    /// Free functions (not inside any impl block).
    pub free_fns: Vec<FnItem>,
}

impl FileItems {
    /// Parses the items of one scrubbed file. `rel` is the
    /// workspace-relative path used to derive crate and module names.
    pub fn parse(rel: &str, scrub: &Scrubbed) -> FileItems {
        let flat = Flat::new(&scrub.code);
        let (crate_name, module_path) = crate_and_module(rel);
        let impls = parse_impls(&flat);
        FileItems {
            crate_name,
            module_path,
            structs: parse_structs(&flat),
            enums: parse_enums(&flat),
            free_fns: parse_fns(&flat, &impls),
            impls,
        }
    }

    /// The struct named `name`, if the file declares one with named fields.
    pub fn struct_named(&self, name: &str) -> Option<&StructItem> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// The enum named `name`, if the file declares one.
    pub fn enum_named(&self, name: &str) -> Option<&EnumItem> {
        self.enums.iter().find(|e| e.name == name)
    }

    /// All impl blocks for `type_name` (inherent and trait impls).
    pub fn impls_of<'a>(&'a self, type_name: &str) -> Vec<&'a ImplItem> {
        self.impls
            .iter()
            .filter(|i| i.type_name == type_name)
            .collect()
    }

    /// Every function in the file: free functions and impl methods.
    pub fn all_fns(&self) -> impl Iterator<Item = &FnItem> {
        self.free_fns
            .iter()
            .chain(self.impls.iter().flat_map(|i| i.methods.iter()))
    }
}

/// Derives `(crate, module)` from a workspace-relative path.
fn crate_and_module(rel: &str) -> (String, String) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, module_parts): (String, &[&str]) = match parts.as_slice() {
        ["crates", krate, "src", rest @ ..] => ((*krate).to_string(), rest),
        [tree @ ("src" | "tests" | "examples"), rest @ ..] => (format!("workspace-{tree}"), rest),
        _ => ("workspace".to_string(), &[]),
    };
    let module = module_parts
        .join("::")
        .trim_end_matches(".rs")
        .trim_end_matches("::mod")
        .trim_end_matches("::lib")
        .to_string();
    (crate_name, module)
}

/// Whether the identifier ending right before `pos` (skipping whitespace, the
/// `const` of a `pub const fn` and a closing `)` from `pub(crate)`) is `pub`.
fn preceded_by_pub(text: &str, pos: usize) -> bool {
    let bytes = text.as_bytes();
    let head = text[..pos].trim_end();
    let mut end = head.strip_suffix("const").unwrap_or(head).len();
    while end > 0 && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    if end > 0 && bytes[end - 1] == b')' {
        // `pub(crate)` / `pub(super)`: rewind past the parenthesized scope.
        let mut open = end - 1;
        while open > 0 && bytes[open] != b'(' {
            open -= 1;
        }
        end = open;
    }
    prev_word(text, end).as_deref() == Some("pub")
}

/// Parses `struct Name { fields }` declarations. Tuple and unit structs
/// (`struct X(...)`, `struct X;`) are skipped.
fn parse_structs(flat: &Flat) -> Vec<StructItem> {
    let text = &flat.text;
    let mut out = Vec::new();
    for pos in word_positions(text, "struct") {
        let Some((name, name_pos)) = next_word(text, pos + "struct".len()) else {
            continue;
        };
        // The body opens at the first `{` before any `;` or `(` at depth 0
        // (a `;` first means a unit struct, a `(` first a tuple struct).
        let tail = &text[name_pos + name.len()..];
        let Some(brace_off) = tail.find(['{', ';', '(']) else {
            continue;
        };
        if !tail[brace_off..].starts_with('{') {
            continue;
        }
        let open = name_pos + name.len() + brace_off;
        let Some(end) = matching_brace(text, open) else {
            continue;
        };
        let body_start = open + 1;
        let body = &text[body_start..end - 1];
        out.push(StructItem {
            name,
            line: flat.line_of(pos),
            fields: parse_fields(body, body_start, flat),
        });
    }
    out
}

/// Splits a struct body into fields at depth-0 commas and extracts each
/// field's name and visibility. Attributes (`#[...]`) are skipped.
fn parse_fields(body: &str, body_start: usize, flat: &Flat) -> Vec<Field> {
    let mut fields = Vec::new();
    let bytes = body.as_bytes();
    let mut depth = 0isize;
    let mut angle = 0isize;
    let mut chunk_start = 0usize;
    let mut i = 0usize;
    let flush = |start: usize, end: usize, fields: &mut Vec<Field>| {
        let chunk = &body[start..end];
        // Drop attribute lines, then read `pub? name :`.
        let mut at = 0usize;
        let cb = chunk.as_bytes();
        loop {
            while at < cb.len() && cb[at].is_ascii_whitespace() {
                at += 1;
            }
            if chunk[at..].starts_with("#[") {
                let mut d = 0usize;
                while at < cb.len() {
                    match cb[at] {
                        b'[' => d += 1,
                        b']' => {
                            d -= 1;
                            if d == 0 {
                                at += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    at += 1;
                }
            } else {
                break;
            }
        }
        let Some(colon) = chunk[at..].find(':').map(|n| at + n) else {
            return;
        };
        let Some(name) = prev_word(chunk, colon) else {
            return;
        };
        if name.is_empty() || name.as_bytes()[0].is_ascii_digit() {
            return;
        }
        let name_pos = chunk[..colon].rfind(&name).unwrap_or(at);
        let is_pub = preceded_by_pub(chunk, name_pos);
        fields.push(Field {
            line: flat.line_of(body_start + start + name_pos),
            name,
            is_pub,
        });
    };
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'<' => angle += 1,
            b'>' if angle > 0 && i > 0 && bytes[i - 1] != b'-' => angle -= 1,
            b',' if depth == 0 && angle <= 0 => {
                flush(chunk_start, i, &mut fields);
                chunk_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    flush(chunk_start, bytes.len(), &mut fields);
    fields
}

/// Parses `enum Name { Variant, ... }` declarations. Identifiers nested in
/// variant payloads or attribute arguments are ignored.
fn parse_enums(flat: &Flat) -> Vec<EnumItem> {
    let text = &flat.text;
    let mut out = Vec::new();
    for pos in word_positions(text, "enum") {
        let Some((name, name_pos)) = next_word(text, pos + "enum".len()) else {
            continue;
        };
        let Some(open) = text[name_pos..].find('{').map(|n| name_pos + n) else {
            continue;
        };
        let Some(end) = matching_brace(text, open) else {
            continue;
        };
        let body = &text[open + 1..end - 1];
        let bytes = body.as_bytes();
        let mut variants = Vec::new();
        let mut depth = 0usize;
        let mut i = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'(' | b'[' | b'{' => {
                    depth += 1;
                    i += 1;
                }
                b')' | b']' | b'}' => {
                    depth = depth.saturating_sub(1);
                    i += 1;
                }
                b'#' if depth == 0 => {
                    // Attribute on a variant: skip to the matching `]`.
                    let mut d = 0usize;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'[' => d += 1,
                            b']' => {
                                d -= 1;
                                if d == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                        if d == 0 && i < bytes.len() && bytes[i] != b'[' {
                            break;
                        }
                    }
                }
                b if depth == 0 && is_word_byte(b) => {
                    let start = i;
                    while i < bytes.len() && is_word_byte(bytes[i]) {
                        i += 1;
                    }
                    variants.push(Variant {
                        name: body[start..i].to_string(),
                        line: flat.line_of(open + 1 + start),
                    });
                }
                _ => i += 1,
            }
        }
        out.push(EnumItem {
            name,
            line: flat.line_of(pos),
            variants,
        });
    }
    out
}

/// Parses every `impl` block: `impl Type { ... }` and
/// `impl Trait for Type { ... }`, with the methods inside.
fn parse_impls(flat: &Flat) -> Vec<ImplItem> {
    let text = &flat.text;
    let mut out = Vec::new();
    for pos in word_positions(text, "impl") {
        // Skip a leading generic parameter list: `impl<T: Clone> Wrapper<T>`.
        let mut hdr_start = pos + "impl".len();
        let bytes = text.as_bytes();
        while hdr_start < bytes.len() && bytes[hdr_start].is_ascii_whitespace() {
            hdr_start += 1;
        }
        if hdr_start < bytes.len() && bytes[hdr_start] == b'<' {
            let mut depth = 0isize;
            while hdr_start < bytes.len() {
                match bytes[hdr_start] {
                    b'<' => depth += 1,
                    b'>' if bytes[hdr_start - 1] != b'-' => {
                        depth -= 1;
                        if depth == 0 {
                            hdr_start += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                hdr_start += 1;
            }
        }
        let Some(open) = text[hdr_start..].find('{').map(|n| hdr_start + n) else {
            continue;
        };
        let header = &text[hdr_start..open];
        let Some(end) = matching_brace(text, open) else {
            continue;
        };
        // Split the header on ` for `: `Trait for Type` vs `Type`.
        let (trait_part, type_part) = match split_on_for(header) {
            Some((t, ty)) => (Some(t), ty),
            None => (None, header.to_string()),
        };
        let trait_name = trait_part.as_deref().map(last_path_segment);
        let type_name = last_path_segment(&type_part);
        if type_name.is_empty() {
            continue;
        }
        out.push(ImplItem {
            trait_name,
            type_name,
            line: flat.line_of(pos),
            end_line: flat.line_of(end.saturating_sub(1)),
            methods: fns_in(text, open + 1, end - 1, flat),
        });
    }
    out
}

/// Splits an impl header at the ` for ` keyword (whole word, depth 0).
fn split_on_for(header: &str) -> Option<(String, String)> {
    word_positions(header, "for").first().map(|&pos| {
        (
            header[..pos].trim().to_string(),
            header[pos + 3..].trim().to_string(),
        )
    })
}

/// The last `::`-separated path segment, with generics and leading
/// qualifiers stripped: `xcc_rpc::endpoint::RpcEndpoint<T>` → `RpcEndpoint`.
fn last_path_segment(path: &str) -> String {
    let path = path.trim();
    let no_generics = match path.find('<') {
        Some(lt) => &path[..lt],
        None => path,
    };
    no_generics
        .rsplit("::")
        .next()
        .unwrap_or("")
        .trim()
        .trim_start_matches("dyn ")
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect()
}

/// Parses the `fn` items between byte positions `from` and `to`.
fn fns_in(text: &str, from: usize, to: usize, flat: &Flat) -> Vec<FnItem> {
    let mut out = Vec::new();
    for pos in word_positions(&text[from..to], "fn") {
        let pos = from + pos;
        let Some((name, name_pos)) = next_word(text, pos + 2) else {
            continue;
        };
        let Some(sig_end) = text[name_pos..].find(['{', ';']).map(|n| name_pos + n) else {
            continue;
        };
        if !text[sig_end..].starts_with('{') || sig_end > to {
            continue;
        }
        let Some(body_end) = matching_brace(text, sig_end) else {
            continue;
        };
        out.push(FnItem {
            is_pub: preceded_by_pub(text, pos),
            line: flat.line_of(pos),
            signature: text[name_pos..sig_end].to_string(),
            body: text[sig_end..body_end].to_string(),
            name,
        });
    }
    out
}

/// Free functions: every `fn` in the file minus those inside impl blocks.
fn parse_fns(flat: &Flat, impls: &[ImplItem]) -> Vec<FnItem> {
    fns_in(&flat.text, 0, flat.text.len(), flat)
        .into_iter()
        .filter(|f| {
            !impls
                .iter()
                .any(|i| f.line >= i.line && f.line <= i.end_line)
        })
        .collect()
}

/// The `pattern => ...` arms of every `match` expression in `text`
/// (byte offsets relative to `text`). Nested matches are included; `=>`
/// inside closures resembles nothing (closures use `|args|`), and match
/// guards stay part of the pattern text.
pub fn match_arms(text: &str) -> Vec<MatchArm> {
    let mut out = Vec::new();
    for pos in word_positions(text, "match") {
        // The match body is the next `{` at the same paren depth.
        let Some(open) = text[pos..].find('{').map(|n| pos + n) else {
            continue;
        };
        let Some(end) = matching_brace(text, open) else {
            continue;
        };
        // Arms: split the body at depth-0 `=>` boundaries; the pattern is
        // the text from the previous arm's end (body start, the previous
        // depth-0 `,`, or a brace body's close) to the `=>`. A `{` at
        // depth 0 only opens an arm *body* after a `=>` — before one it is
        // part of a struct pattern (`Kind::Pull { n }`).
        let body = &text[open + 1..end - 1];
        let base = open + 1;
        let mut depth = 0isize;
        let mut arm_start = 0usize;
        let mut in_body = false;
        let mut i = 0usize;
        let bb = body.as_bytes();
        while i < bb.len() {
            match bb[i] {
                b'{' if depth == 0 && in_body => {
                    // Brace-bodied arm: skip it; the next arm starts after
                    // the close (trailing comma optional).
                    let Some(close) = matching_brace(body, i) else {
                        break;
                    };
                    i = close;
                    arm_start = i;
                    in_body = false;
                    continue;
                }
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b',' if depth == 0 => {
                    arm_start = i + 1;
                    in_body = false;
                }
                b'=' if depth == 0 && !in_body && i + 1 < bb.len() && bb[i + 1] == b'>' => {
                    let pattern = body[arm_start..i].trim();
                    if !pattern.is_empty() {
                        let pat_off = arm_start
                            + (body[arm_start..i].len() - body[arm_start..i].trim_start().len());
                        out.push(MatchArm {
                            pattern: pattern.to_string(),
                            offset: base + pat_off,
                        });
                    }
                    in_body = true;
                    i += 2;
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Scrubbed;

    fn items(src: &str) -> FileItems {
        FileItems::parse("crates/demo/src/thing.rs", &Scrubbed::scan(src))
    }

    #[test]
    fn crate_and_module_paths() {
        let (k, m) = crate_and_module("crates/relayer/src/strategy.rs");
        assert_eq!((k.as_str(), m.as_str()), ("relayer", "strategy"));
        let (k, m) = crate_and_module("tests/multi_channel.rs");
        assert_eq!(
            (k.as_str(), m.as_str()),
            ("workspace-tests", "multi_channel")
        );
        let (k, _) = crate_and_module("src/lib.rs");
        assert_eq!(k, "workspace-src");
    }

    #[test]
    fn structs_with_fields_and_visibility() {
        let f = items(
            "pub struct Config {\n    /// doc\n    pub name: String,\n    #[allow(dead_code)]\n    \
             pub(crate) count: usize,\n    secret: u64,\n    pub map: BTreeMap<String, usize>,\n}\n\
             struct Unit;\nstruct Tuple(u32);\n",
        );
        assert_eq!(f.structs.len(), 1, "unit/tuple structs are skipped");
        let s = &f.structs[0];
        assert_eq!(s.name, "Config");
        let names: Vec<(&str, bool)> = s
            .fields
            .iter()
            .map(|fld| (fld.name.as_str(), fld.is_pub))
            .collect();
        assert_eq!(
            names,
            [
                ("name", true),
                ("count", true),
                ("secret", false),
                ("map", true)
            ]
        );
        assert_eq!(s.fields[0].line, 3);
    }

    #[test]
    fn serde_attributes_hide_no_field() {
        // K1 walks the knob structs through this parser: attribute
        // arguments (commas, `=`, path strings with `::`) must neither
        // split a field nor swallow the one that follows.
        let f = items(
            "pub struct Knobs {\n    pub seed: u64,\n    #[serde(rename = \"one\")]\n    \
             pub channel_count: usize,\n    /// doc\n    \
             #[serde(rename = \"p\", skip_serializing_if = \"std::ops::Not::not\")]\n    \
             pub profile_work: bool,\n    #[serde(skip)]\n    cache: OnceCell<(RawTx, Hash)>,\n}\n",
        );
        let names: Vec<(&str, bool)> = f.structs[0]
            .fields
            .iter()
            .map(|fld| (fld.name.as_str(), fld.is_pub))
            .collect();
        assert_eq!(
            names,
            [
                ("seed", true),
                ("channel_count", true),
                ("profile_work", true),
                ("cache", false)
            ]
        );
        assert_eq!(f.structs[0].fields[1].line, 4);
    }

    #[test]
    fn generic_field_types_do_not_split_fields() {
        let f =
            items("struct S {\n    pub a: BTreeMap<String, Vec<(u64, u64)>>,\n    pub b: u8,\n}\n");
        let names: Vec<&str> = f.structs[0]
            .fields
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn enums_with_variants() {
        let f = items(
            "pub enum Kind {\n    #[default]\n    Alpha,\n    Beta(usize),\n    Gamma { x: u8 },\n}\n",
        );
        let e = f.enum_named("Kind").expect("enum parsed");
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["Alpha", "Beta", "Gamma"]);
        assert_eq!(e.variants[0].line, 3);
    }

    #[test]
    fn impls_inherent_and_trait() {
        let f = items(
            "impl Config {\n    pub fn get(&self) -> u64 { self.x }\n    fn helper() {}\n}\n\
             impl Serialize for Config {\n    fn to_value(&self) -> Value {\n        \
             Value::Map(vec![])\n    }\n}\n",
        );
        assert_eq!(f.impls.len(), 2);
        let inherent = &f.impls[0];
        assert_eq!(inherent.type_name, "Config");
        assert!(inherent.trait_name.is_none());
        assert_eq!(inherent.methods.len(), 2);
        assert!(inherent.methods[0].is_pub);
        assert!(!inherent.methods[1].is_pub);
        let trait_impl = &f.impls[1];
        assert_eq!(trait_impl.trait_name.as_deref(), Some("Serialize"));
        assert_eq!(trait_impl.type_name, "Config");
        assert_eq!(trait_impl.methods[0].name, "to_value");
        assert!(trait_impl.line < trait_impl.end_line);
    }

    #[test]
    fn impl_with_generics_and_paths() {
        let f = items(
            "impl<T: Clone> Wrapper<T> {\n    fn w(&self) {}\n}\n\
             impl serde::Deserialize for config::Deep {\n    fn from_value() {}\n}\n",
        );
        assert_eq!(f.impls[0].type_name, "Wrapper");
        assert_eq!(f.impls[1].trait_name.as_deref(), Some("Deserialize"));
        assert_eq!(f.impls[1].type_name, "Deep");
    }

    #[test]
    fn free_fns_exclude_methods() {
        let f = items(
            "pub fn free() -> u64 { 1 }\nimpl X {\n    pub fn method(&self) {}\n}\n\
             pub(crate) const fn fixed() -> u64 { 2 }\nconst fn hidden() -> u64 { 3 }\n",
        );
        let free: Vec<&str> = f.free_fns.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(free, ["free", "fixed", "hidden"]);
        let all: Vec<(&str, bool)> = f.all_fns().map(|x| (x.name.as_str(), x.is_pub)).collect();
        let expected = [
            ("free", true),
            ("fixed", true),
            ("hidden", false),
            ("method", true),
        ];
        assert_eq!(all, expected);
    }

    #[test]
    fn match_arms_patterns() {
        let arms = match_arms(
            "{ match kind { RequestKind::Status => 1, RequestKind::Pull { n } => n, _ => 0, } }",
        );
        let pats: Vec<&str> = arms.iter().map(|a| a.pattern.as_str()).collect();
        assert_eq!(
            pats,
            ["RequestKind::Status", "RequestKind::Pull { n }", "_"]
        );
    }

    #[test]
    fn match_arms_with_block_bodies() {
        let arms = match_arms("{ match x { A => { f(); g(); } B(y) => y, } }");
        let pats: Vec<&str> = arms.iter().map(|a| a.pattern.as_str()).collect();
        assert_eq!(pats, ["A", "B(y)"]);
    }

    #[test]
    fn fn_signature_and_body_are_captured() {
        let f = items(
            "impl E {\n    pub fn status(&mut self) -> RpcResponse<u64> {\n        \
             self.respond(RequestKind::Status)\n    }\n}\n",
        );
        let m = &f.impls[0].methods[0];
        assert_eq!(m.name, "status");
        assert!(m.signature.contains("RpcResponse"));
        assert!(m.body.contains("RequestKind"));
    }
}
