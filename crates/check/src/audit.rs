//! Source-level unsafe audit: a dependency-free scanner enforcing the
//! workspace's unsafe-code policy.
//!
//! Rules (each violation carries file, line, and rule id):
//!
//! - **`safety-comment`** — every `unsafe` site (block, `unsafe impl`,
//!   `unsafe fn`) must carry a justification: a `// SAFETY:` comment on
//!   the same line or immediately above (attribute lines, blank lines,
//!   and adjacent `unsafe` lines — e.g. paired `unsafe impl Send`/`Sync`
//!   — may sit between the comment and the site), or a `# Safety` doc
//!   section for `unsafe fn` declarations.
//! - **`no-static-mut`** — `static mut` is banned outright (use
//!   atomics, `OnceLock`, or interior mutability).
//! - **`forbid-unsafe`** — a crate whose sources contain no unsafe at
//!   all must say so in every crate-root file (`src/lib.rs`,
//!   `src/main.rs`, `src/bin/*.rs`): `#![forbid(unsafe_code)]`.
//! - **`deny-unsafe-op`** — a crate that does use unsafe must declare
//!   `#![deny(unsafe_op_in_unsafe_fn)]` in its library root, so every
//!   unsafe operation needs its own `unsafe {}` block (and therefore
//!   its own SAFETY comment) even inside `unsafe fn`s.
//!
//! The scanner lexes line-by-line with a small state machine (block
//! comments, regular/raw strings, char literals vs lifetimes), so
//! `unsafe` inside strings or comments never counts as a site and
//! SAFETY text inside strings never counts as a justification. It runs
//! as a workspace test and inside the `check_smoke` CI gate; fixture
//! inputs are fed in-memory via [`scan_source`].

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Lexing: split each line into code and comment content
// ---------------------------------------------------------------------------

/// One source line after lexing: what is code and what is comment.
#[derive(Debug, Default, Clone)]
struct LexedLine {
    code: String,
    comment: String,
}

#[derive(Clone, Copy, PartialEq)]
enum LexState {
    Code,
    BlockComment(u32),
    /// Inside a regular `"…"` string.
    Str,
    /// Inside a raw string with this many `#`s in its delimiter.
    RawStr(u32),
}

/// Lex `source` into per-line code/comment splits. The lexer tracks
/// multi-line constructs (block comments, strings) across lines.
fn lex(source: &str) -> Vec<LexedLine> {
    let mut out = Vec::new();
    let mut state = LexState::Code;
    for raw_line in source.lines() {
        let mut line = LexedLine::default();
        let bytes: Vec<char> = raw_line.chars().collect();
        let mut i = 0usize;
        while i < bytes.len() {
            match state {
                LexState::BlockComment(depth) => {
                    if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        state = if depth > 1 {
                            LexState::BlockComment(depth - 1)
                        } else {
                            LexState::Code
                        };
                        i += 2;
                    } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        state = LexState::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        line.comment.push(bytes[i]);
                        i += 1;
                    }
                }
                LexState::Str => {
                    if bytes[i] == '\\' {
                        i += 2; // skip the escaped char (may run past EOL: fine)
                    } else if bytes[i] == '"' {
                        state = LexState::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if bytes[i] == '"' {
                        let mut n = 0u32;
                        while n < hashes && bytes.get(i + 1 + n as usize) == Some(&'#') {
                            n += 1;
                        }
                        if n == hashes {
                            state = LexState::Code;
                            i += 1 + hashes as usize;
                            continue;
                        }
                    }
                    i += 1;
                }
                LexState::Code => {
                    let c = bytes[i];
                    if c == '/' && bytes.get(i + 1) == Some(&'/') {
                        // Line comment (incl. doc comments) to EOL.
                        line.comment.extend(&bytes[i + 2..]);
                        i = bytes.len();
                    } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                        state = LexState::BlockComment(1);
                        i += 2;
                    } else if c == '"' {
                        state = LexState::Str;
                        line.code.push(' ');
                        i += 1;
                    } else if c == 'r' || c == 'b' {
                        // Possible raw/byte string prefix: r", r#", br", b".
                        let mut j = i + 1;
                        if c == 'b' && bytes.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        let is_raw = j > i + 1 || (c == 'r' && hashes > 0);
                        if bytes.get(j) == Some(&'"') && (is_raw || c == 'r') {
                            state = if hashes > 0 || c == 'r' || is_raw {
                                LexState::RawStr(hashes)
                            } else {
                                LexState::Str
                            };
                            line.code.push(' ');
                            i = j + 1;
                        } else if c == 'b' && bytes.get(i + 1) == Some(&'"') {
                            state = LexState::Str;
                            line.code.push(' ');
                            i += 2;
                        } else if c == 'b' && bytes.get(i + 1) == Some(&'\'') {
                            // Byte char literal b'x' / b'\n'.
                            i += 2;
                            if bytes.get(i) == Some(&'\\') {
                                i += 1;
                            }
                            while i < bytes.len() && bytes[i] != '\'' {
                                i += 1;
                            }
                            i += 1;
                            line.code.push(' ');
                        } else {
                            line.code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Lifetime or char literal. A lifetime is `'`
                        // followed by an identifier NOT closed by `'`.
                        let next = bytes.get(i + 1).copied();
                        let next2 = bytes.get(i + 2).copied();
                        let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                            && next2 != Some('\'');
                        if is_lifetime {
                            line.code.push(c);
                            i += 1;
                        } else {
                            // Char literal: skip to the closing quote.
                            i += 1;
                            if bytes.get(i) == Some(&'\\') {
                                i += 1;
                                // \u{…} escapes contain more chars; the
                                // loop below runs to the closing quote.
                            }
                            while i < bytes.len() && bytes[i] != '\'' {
                                i += 1;
                            }
                            i += 1;
                            line.code.push(' ');
                        }
                    } else {
                        line.code.push(c);
                        i += 1;
                    }
                }
            }
        }
        out.push(line);
    }
    out
}

/// True when `needle` occurs in `haystack` as a standalone word (not
/// embedded in a longer identifier like `unsafe_op_in_unsafe_fn`).
fn contains_word(haystack: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !haystack[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= haystack.len()
            || !haystack[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

fn is_safety_comment(comment: &str) -> bool {
    comment.contains("SAFETY:") || comment.contains("# Safety")
}

/// True when `code` contains an `unsafe` **site** (block, `unsafe fn`
/// declaration, `unsafe impl`/`unsafe trait`). Occurrences that are
/// part of a function-pointer *type* (`unsafe fn(args)`, possibly with
/// an `extern` ABI) are not sites — there is nothing to justify at a
/// type annotation.
fn has_unsafe_site(code: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find("unsafe") {
        let at = start + pos;
        start = at + "unsafe".len();
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after_ok = !code[start..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !(before_ok && after_ok) {
            continue;
        }
        let mut rest = code[start..].trim_start();
        if let Some(stripped) = rest.strip_prefix("extern") {
            // The lexer replaced the ABI string with a space.
            rest = stripped.trim_start();
        }
        if let Some(stripped) = rest.strip_prefix("fn") {
            if stripped.trim_start().starts_with('(') {
                continue; // fn-pointer type, not a declaration
            }
        }
        return true;
    }
    false
}

// ---------------------------------------------------------------------------
// Per-file scan
// ---------------------------------------------------------------------------

/// Scan results for one source file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// 1-indexed lines containing an `unsafe` site.
    pub unsafe_lines: Vec<usize>,
    /// Unsafe sites with no covering SAFETY justification.
    pub uncovered: Vec<usize>,
    /// `static mut` declarations.
    pub static_muts: Vec<usize>,
    /// File declares `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
    /// File declares `#![deny(unsafe_op_in_unsafe_fn)]`.
    pub has_deny_unsafe_op: bool,
}

/// Scan one source file's content (also the entry point fixture tests
/// use to feed deliberately-bad sources in memory).
pub fn scan_source(content: &str) -> FileScan {
    let lines = lex(content);
    let mut scan = FileScan::default();
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.trim();
        if has_unsafe_site(&line.code) {
            scan.unsafe_lines.push(idx + 1);
            if !covered_by_safety(&lines, idx) {
                scan.uncovered.push(idx + 1);
            }
        }
        if contains_word(&line.code, "static") && contains_word(&line.code, "mut") {
            // `static mut NAME` — require adjacency to avoid matching
            // e.g. `static FOO: Mutex<…>` (no bare `mut` there) or a
            // `&'static mut` reborrow in a type position... which is
            // still worth flagging: any `static mut` pairing is banned.
            if line.code.contains("static mut") {
                scan.static_muts.push(idx + 1);
            }
        }
        if code.starts_with("#!") {
            if code.contains("forbid") && code.contains("unsafe_code") {
                scan.has_forbid_unsafe = true;
            }
            if code.contains("deny") && code.contains("unsafe_op_in_unsafe_fn") {
                scan.has_deny_unsafe_op = true;
            }
        }
    }
    scan
}

/// Does the `unsafe` site at `idx` (0-indexed) carry a SAFETY
/// justification? Checks the same line's trailing comment, then walks
/// upward through blank lines, attributes, pure-comment lines, and
/// adjacent `unsafe` lines until it finds a SAFETY comment (ok) or a
/// non-matching code line (violation).
fn covered_by_safety(lines: &[LexedLine], idx: usize) -> bool {
    if is_safety_comment(&lines[idx].comment) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let line = &lines[j];
        if is_safety_comment(&line.comment) {
            return true;
        }
        let code = line.code.trim();
        let pure_comment = code.is_empty(); // comment-only or blank line
        let attribute = code.starts_with("#[") || code.starts_with("#!");
        let unsafe_run = has_unsafe_site(&line.code);
        if pure_comment || attribute || unsafe_run {
            continue;
        }
        return false;
    }
    false
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// A workspace member crate and its sources.
#[derive(Debug)]
pub struct CrateSources {
    pub name: String,
    /// Crate-root files: `src/lib.rs`, `src/main.rs`, `src/bin/*.rs`.
    pub roots: Vec<PathBuf>,
    /// Every `.rs` file under `src/`, `tests/`, `examples/`, `benches/`.
    pub files: Vec<PathBuf>,
}

/// Locate the workspace root by walking up from `start` to the first
/// `Cargo.toml` containing a `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(content) = std::fs::read_to_string(&manifest) {
            if content.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn parse_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with("members") && line.contains('[') {
            in_members = true;
        }
        if in_members {
            for piece in line.split('"').skip(1).step_by(2) {
                members.push(piece.to_string());
            }
            if line.contains(']') {
                in_members = false;
            }
        }
    }
    members
}

fn parse_crate_name(manifest: &str) -> Option<String> {
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                return rest.trim().trim_matches('"').to_string().into();
            }
        }
    }
    None
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Enumerate the workspace's member crates and their source files.
pub fn workspace_crates(root: &Path) -> Vec<CrateSources> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let mut crates = Vec::new();
    for member in parse_members(&manifest) {
        let dir = root.join(&member);
        let member_manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
        let name = parse_crate_name(&member_manifest).unwrap_or_else(|| member.clone());
        let mut files = Vec::new();
        for sub in ["src", "tests", "examples", "benches"] {
            collect_rs_files(&dir.join(sub), &mut files);
        }
        let mut roots = Vec::new();
        for candidate in ["src/lib.rs", "src/main.rs"] {
            let p = dir.join(candidate);
            if p.is_file() {
                roots.push(p);
            }
        }
        let mut bin_files = Vec::new();
        collect_rs_files(&dir.join("src/bin"), &mut bin_files);
        roots.extend(bin_files);
        crates.push(CrateSources { name, roots, files });
    }
    crates
}

/// Run every audit rule over the workspace rooted at `root`.
pub fn audit_workspace(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for krate in workspace_crates(root) {
        let mut crate_has_unsafe = false;
        let mut scans = Vec::new();
        for file in &krate.files {
            let Ok(content) = std::fs::read_to_string(file) else {
                continue;
            };
            let scan = scan_source(&content);
            let display = file
                .strip_prefix(root)
                .unwrap_or(file)
                .display()
                .to_string();
            crate_has_unsafe |= !scan.unsafe_lines.is_empty();
            for line in &scan.uncovered {
                violations.push(Violation {
                    file: display.clone(),
                    line: *line,
                    rule: "safety-comment",
                    message: "`unsafe` site without a covering `// SAFETY:` comment".into(),
                });
            }
            for line in &scan.static_muts {
                violations.push(Violation {
                    file: display.clone(),
                    line: *line,
                    rule: "no-static-mut",
                    message: "`static mut` is banned (use atomics or interior mutability)".into(),
                });
            }
            scans.push((file.clone(), display, scan));
        }
        for root_file in &krate.roots {
            let Some((_, display, scan)) = scans.iter().find(|(f, _, _)| f == root_file) else {
                continue;
            };
            if !crate_has_unsafe && !scan.has_forbid_unsafe {
                violations.push(Violation {
                    file: display.clone(),
                    line: 1,
                    rule: "forbid-unsafe",
                    message: format!(
                        "crate '{}' has no unsafe code: its root must declare \
                         #![forbid(unsafe_code)]",
                        krate.name
                    ),
                });
            }
        }
        if crate_has_unsafe {
            let lib_root = krate.roots.iter().find(|r| r.ends_with("src/lib.rs"));
            if let Some(lib_root) = lib_root {
                let covered = scans
                    .iter()
                    .find(|(f, _, _)| f == lib_root)
                    .is_some_and(|(_, _, s)| s.has_deny_unsafe_op);
                if !covered {
                    violations.push(Violation {
                        file: lib_root
                            .strip_prefix(root)
                            .unwrap_or(lib_root)
                            .display()
                            .to_string(),
                        line: 1,
                        rule: "deny-unsafe-op",
                        message: format!(
                            "crate '{}' uses unsafe: its library root must declare \
                             #![deny(unsafe_op_in_unsafe_fn)]",
                            krate.name
                        ),
                    });
                }
            }
        }
    }
    violations
}

/// Total `unsafe` sites (as [`scan_source`] counts them) across the
/// given source texts.
pub fn count_unsafe_sites<'a>(sources: impl IntoIterator<Item = &'a str>) -> usize {
    sources
        .into_iter()
        .map(|src| scan_source(src).unsafe_lines.len())
        .sum()
}

/// `unsafe` sites per member crate of the workspace rooted at `root`,
/// in member order: the figure refactors report as the unsafe-audit
/// site count.
pub fn unsafe_sites_per_crate(root: &Path) -> Vec<(String, usize)> {
    workspace_crates(root)
        .into_iter()
        .map(|krate| {
            let contents: Vec<String> = krate
                .files
                .iter()
                .filter_map(|f| std::fs::read_to_string(f).ok())
                .collect();
            let sites = count_unsafe_sites(contents.iter().map(String::as_str));
            (krate.name, sites)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_count_sums_sites_across_sources() {
        let blocks =
            "fn f() {\n    // SAFETY: disjoint.\n    unsafe { a() };\n    unsafe { b() };\n}\n";
        let impls = "// SAFETY: owned.\nunsafe impl Send for X {}\nunsafe impl Sync for X {}\n";
        let decoys = "// unsafe in a comment\nfn g() { let s = \"unsafe { x }\"; }\n";
        assert_eq!(count_unsafe_sites([blocks]), 2);
        assert_eq!(count_unsafe_sites([blocks, impls, decoys]), 4);
        assert_eq!(count_unsafe_sites([decoys]), 0);
        assert_eq!(count_unsafe_sites(std::iter::empty()), 0);
    }

    #[test]
    fn covered_block_passes() {
        let src = "fn f() {\n    // SAFETY: disjoint slots.\n    unsafe { ptr.write(1) };\n}\n";
        let scan = scan_source(src);
        assert_eq!(scan.unsafe_lines, vec![3]);
        assert!(scan.uncovered.is_empty());
    }

    #[test]
    fn uncovered_block_flagged() {
        let src = "fn f() {\n    unsafe { ptr.write(1) };\n}\n";
        let scan = scan_source(src);
        assert_eq!(scan.uncovered, vec![2]);
    }

    #[test]
    fn trailing_comment_covers() {
        let src = "unsafe { out.set_len(n) }; // SAFETY: all written\n";
        assert!(scan_source(src).uncovered.is_empty());
    }

    #[test]
    fn attribute_between_comment_and_site_ok() {
        let src = "// SAFETY: fully initialized below.\n#[allow(clippy::uninit_vec)]\nunsafe {\n    v.set_len(n);\n}\n";
        assert!(scan_source(src).uncovered.is_empty());
    }

    #[test]
    fn paired_unsafe_impls_share_one_comment() {
        let src = "// SAFETY: disjoint-slot writes only.\nunsafe impl<T: Send> Send for P<T> {}\nunsafe impl<T: Send> Sync for P<T> {}\n";
        let scan = scan_source(src);
        assert_eq!(scan.unsafe_lines, vec![2, 3]);
        assert!(scan.uncovered.is_empty());
    }

    #[test]
    fn safety_doc_section_covers_unsafe_fn() {
        let src = "/// Does a thing.\n///\n/// # Safety\n/// Caller must keep the referent alive.\npub unsafe fn execute(self) {}\n";
        assert!(scan_source(src).uncovered.is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_is_not_a_site() {
        let src = "// this mentions unsafe code in prose\nlet s = \"unsafe { }\";\nlet r = r#\"unsafe\"#;\n";
        let scan = scan_source(src);
        assert!(scan.unsafe_lines.is_empty(), "{:?}", scan.unsafe_lines);
    }

    #[test]
    fn safety_text_inside_string_does_not_cover() {
        let src = "let s = \"SAFETY: not a comment\";\nunsafe { ptr.read() };\n";
        let scan = scan_source(src);
        assert_eq!(scan.uncovered, vec![2]);
    }

    #[test]
    fn unsafe_identifier_fragment_is_not_a_site() {
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\nfn unsafe_helper() {}\n";
        let scan = scan_source(src);
        assert!(scan.unsafe_lines.is_empty());
        assert!(scan.has_deny_unsafe_op);
    }

    #[test]
    fn fn_pointer_type_is_not_a_site() {
        let src = "struct J { execute: unsafe fn(*const ()) }\nlet e: unsafe extern \"C\" fn(u8) = f;\nfn new(e: unsafe fn(*const ())) {}\n";
        let scan = scan_source(src);
        assert!(scan.unsafe_lines.is_empty(), "{:?}", scan.unsafe_lines);
    }

    #[test]
    fn unsafe_fn_declaration_is_a_site() {
        let src = "unsafe fn execute(self) {}\n";
        assert_eq!(scan_source(src).unsafe_lines, vec![1]);
    }

    #[test]
    fn static_mut_flagged() {
        let src = "static mut COUNTER: usize = 0;\n";
        let scan = scan_source(src);
        assert_eq!(scan.static_muts, vec![1]);
    }

    #[test]
    fn forbid_attribute_detected() {
        let src = "//! Docs.\n#![forbid(unsafe_code)]\n";
        assert!(scan_source(src).has_forbid_unsafe);
    }

    #[test]
    fn block_comments_and_lifetimes_lex() {
        let src =
            "/* unsafe in block comment */\nfn f<'a>(x: &'a u8) -> char { 'x' }\nlet c = '\\'';\n";
        let scan = scan_source(src);
        assert!(scan.unsafe_lines.is_empty());
    }

    #[test]
    fn multi_line_block_comment_strips() {
        let src = "/*\nunsafe { }\n*/\nfn ok() {}\n";
        assert!(scan_source(src).unsafe_lines.is_empty());
    }
}
