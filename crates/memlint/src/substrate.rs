//! The lexical substrate the rules scan: source text blanked of comments,
//! strings and `#[cfg(test)]` regions (same length, newlines preserved, so
//! byte offsets translate to line numbers) plus the `fn` body extents, both
//! computed once per file. Rules never re-parse — they pattern-match over
//! [`SourceFile::masked`] and anchor diagnostics through
//! [`SourceFile::line_of`].
//!
//! The scanner is deliberately hand-rolled (the workspace has no `syn`): it
//! reads the code the way a person skims it, and errs on the side of
//! flagging — anything it cannot prove boring needs either a fix or a
//! written waiver reason.

use std::path::PathBuf;

/// Returns `src` with comments, string literals and char literals blanked
/// to spaces — same length, newlines preserved, so byte offsets and line
/// numbers stay valid.
pub fn mask_code(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
                if i < b.len() {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string: r"..." or r#"..."# (any hash count).
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    j += 1;
                    'raw: while j < b.len() {
                        if b[j] == b'"' {
                            let mut k = 0;
                            while k < hashes && j + 1 + k < b.len() && b[j + 1 + k] == b'#' {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    for &byte in &b[start..j] {
                        out.push(if byte == b'\n' { b'\n' } else { b' ' });
                    }
                    i = j;
                } else {
                    out.push(b[i]);
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs. lifetime: 'x' / '\n' are literals,
                // 'a> / 'static are lifetimes (lone quote passes through).
                if i + 2 < b.len() && b[i + 1] == b'\\' {
                    let mut j = i + 2;
                    while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
                        j += 1;
                    }
                    let end = j.min(b.len() - 1);
                    out.extend(std::iter::repeat_n(b' ', end - i + 1));
                    i = j + 1;
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    out.extend_from_slice(b"   ");
                    i += 3;
                } else {
                    out.push(b[i]);
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    // Byte-preserving for ASCII structure; non-ASCII bytes outside the
    // masked literals pass through untouched.
    String::from_utf8_lossy(&out).into_owned()
}

/// Offset of the matching close delimiter for the open one at `open`.
pub fn match_delim(masked: &[u8], open: usize) -> Option<usize> {
    let (o, c) = match masked[open] {
        b'(' => (b'(', b')'),
        b'{' => (b'{', b'}'),
        b'[' => (b'[', b']'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (i, &ch) in masked.iter().enumerate().skip(open) {
        if ch == o {
            depth += 1;
        } else if ch == c {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Offset of the matching open delimiter for the close one at `close`.
pub fn match_delim_back(masked: &[u8], close: usize) -> Option<usize> {
    let (o, c) = match masked[close] {
        b')' => (b'(', b')'),
        b'}' => (b'{', b'}'),
        b']' => (b'[', b']'),
        _ => return None,
    };
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        if masked[i] == c {
            depth += 1;
        } else if masked[i] == o {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// All byte offsets of `needle` in `hay`.
pub fn find_all(hay: &str, needle: &str) -> Vec<usize> {
    let mut v = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        v.push(from + p);
        from += p + needle.len();
    }
    v
}

pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Occurrences of `word` in `hay` with identifier boundaries on both sides.
pub fn find_tokens(hay: &str, word: &str) -> Vec<usize> {
    let b = hay.as_bytes();
    find_all(hay, word)
        .into_iter()
        .filter(|&at| {
            let before_ok = at == 0 || !is_ident_byte(b[at - 1]);
            let end = at + word.len();
            let after_ok = end >= b.len() || !is_ident_byte(b[end]);
            before_ok && after_ok
        })
        .collect()
}

/// Offset of the first non-whitespace byte at or after `from`.
pub fn skip_ws(b: &[u8], mut from: usize) -> usize {
    while from < b.len() && b[from].is_ascii_whitespace() {
        from += 1;
    }
    from
}

/// Offset of the last non-whitespace byte strictly before `before`, if any.
pub fn prev_non_ws(b: &[u8], before: usize) -> Option<usize> {
    (0..before).rev().find(|&i| !b[i].is_ascii_whitespace())
}

/// Start offset of the statement containing `offset`: the first
/// non-whitespace byte after the previous `;`, `{` or `}`.
pub fn stmt_start(masked: &str, offset: usize) -> usize {
    let b = masked.as_bytes();
    let mut i = offset;
    while i > 0 {
        match b[i - 1] {
            b';' | b'{' | b'}' => break,
            _ => i -= 1,
        }
    }
    skip_ws(b, i)
}

/// End offset (exclusive) of the statement containing `offset`: just past
/// the next `;`, or the end of the text.
pub fn stmt_end(masked: &str, offset: usize) -> usize {
    let b = masked.as_bytes();
    match b[offset..].iter().position(|&c| c == b';') {
        Some(p) => offset + p + 1,
        None => b.len(),
    }
}

/// Blanks `#[cfg(test)]`-gated items (incl. `#[cfg(all(test, ...))]`) so
/// test-only code — model suites, fixtures inlined in tests — is not
/// audited: tests may intentionally write smelly patterns.
pub fn mask_test_regions(masked: &mut String) {
    let snapshot = masked.clone();
    let bytes = snapshot.as_bytes();
    let mut cuts: Vec<(usize, usize)> = Vec::new();
    for pat in ["#[cfg(test)]", "#[cfg(all(test"] {
        for at in find_all(&snapshot, pat) {
            // The gated item's body is the next brace group.
            if let Some(open) = snapshot[at..].find('{').map(|p| at + p) {
                if let Some(close) = match_delim(bytes, open) {
                    cuts.push((at, close));
                }
            }
        }
    }
    if cuts.is_empty() {
        return;
    }
    let mut out = snapshot.into_bytes();
    for (a, b) in cuts {
        for p in a..=b.min(out.len() - 1) {
            if out[p] != b'\n' {
                out[p] = b' ';
            }
        }
    }
    *masked = String::from_utf8_lossy(&out).into_owned();
}

/// Brace-body extents (inclusive braces) of every `fn` item in the masked
/// source: free functions, methods and trait defaults. Declarations ending
/// in `;` and `fn(...)` pointer types have none.
fn fn_bodies(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut v = Vec::new();
    for at in find_tokens(masked, "fn") {
        let mut j = skip_ws(bytes, at + 2);
        let name_start = j;
        while j < bytes.len() && is_ident_byte(bytes[j]) {
            j += 1;
        }
        if j == name_start {
            continue;
        }
        // Parameter list: first paren group after the name (generics in
        // between contain no parens).
        let mut k = j;
        let mut params_end = None;
        while k < bytes.len() {
            match bytes[k] {
                b'(' => {
                    params_end = match_delim(bytes, k);
                    break;
                }
                b'{' | b';' => break,
                _ => k += 1,
            }
        }
        // Body = first top-level brace group, unless `;` ends the item.
        let mut j2 = params_end.map_or(j, |pc| pc + 1);
        while j2 < bytes.len() {
            match bytes[j2] {
                b'{' => {
                    if let Some(close) = match_delim(bytes, j2) {
                        v.push((j2, close));
                    }
                    break;
                }
                b';' => break,
                b'(' | b'[' => match match_delim(bytes, j2) {
                    Some(close) => j2 = close + 1,
                    None => break,
                },
                _ => j2 += 1,
            }
        }
    }
    v
}

/// One audited file with its masked text and `fn` body extents.
pub struct SourceFile {
    /// Workspace-relative path (or the bare label for single-file scans).
    pub rel: PathBuf,
    /// Raw source (waiver directives live in comments, so they are read
    /// from here).
    pub src: String,
    /// Masked source: comments/strings/chars/test regions blanked.
    pub masked: String,
    /// Byte offset of each line start.
    starts: Vec<usize>,
    /// Every `fn` body extent.
    pub fn_bodies: Vec<(usize, usize)>,
}

impl SourceFile {
    pub fn new(rel: PathBuf, src: String) -> SourceFile {
        let mut masked = mask_code(&src);
        mask_test_regions(&mut masked);
        let starts =
            std::iter::once(0).chain(src.match_indices('\n').map(|(i, _)| i + 1)).collect();
        let fn_bodies = fn_bodies(&masked);
        SourceFile { rel, src, masked, starts, fn_bodies }
    }

    /// 1-based line containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        self.starts.partition_point(|&s| s <= offset)
    }
}

/// Walks a receiver chain backward from `end` (exclusive): skips one
/// trailing paren group if present, then reads the identifier. Returns the
/// identifier closest to `end` — e.g. `self.list.offset` → `offset`,
/// `self.shard(warp)` → `shard`.
pub fn chain_tail_ident(masked: &str, end: usize) -> Option<(usize, String)> {
    let b = masked.as_bytes();
    let mut i = prev_non_ws(b, end)? + 1;
    if i > 0 && b[i - 1] == b')' {
        i = match_delim_back(b, i - 1)?;
    }
    let word_end = i;
    while i > 0 && is_ident_byte(b[i - 1]) {
        i -= 1;
    }
    if i == word_end {
        return None;
    }
    Some((i, masked[i..word_end].to_string()))
}

/// Extends a span rightward over an `as <type>` cast, reporting the cast
/// target. Used by the offset rule to skip float casts (no wrap hazard).
pub fn cast_after(masked: &str, end: usize) -> Option<(usize, String)> {
    let b = masked.as_bytes();
    let j = skip_ws(b, end);
    if !masked[j..].starts_with("as") {
        return None;
    }
    let j2 = j + 2;
    if j2 < b.len() && is_ident_byte(b[j2]) {
        return None;
    }
    let t = skip_ws(b, j2);
    let mut te = t;
    while te < b.len() && is_ident_byte(b[te]) {
        te += 1;
    }
    (te > t).then(|| (te, masked[t..te].to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_preserves_length_and_lines() {
        let src = "let a = \"str // not comment\"; // real\nlet b = '\\n'; /* c\n*/ x";
        let m = mask_code(src);
        assert_eq!(m.len(), src.len());
        assert_eq!(m.matches('\n').count(), src.matches('\n').count());
        assert!(!m.contains("not comment"));
        assert!(!m.contains("real"));
        assert!(m.contains("let b"));
        assert!(m.contains(" x"));
    }

    #[test]
    fn lifetimes_survive_masking() {
        let m = mask_code("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(m.contains("fn f<'a>"));
    }

    #[test]
    fn fn_bodies_skip_declarations_and_pointer_types() {
        let src = "fn alpha(a: u64, mut b: &str) -> u64 { a }\n\
                   trait T { fn decl(&self, n: usize); fn defaulted(&self) -> bool { true } }\n\
                   struct S { run: fn(u32) -> u32 }";
        let f = SourceFile::new("x.rs".into(), src.into());
        let bodies: Vec<&str> = f.fn_bodies.iter().map(|&(s, e)| &src[s..=e]).collect();
        assert_eq!(bodies, ["{ a }", "{ true }"]);
    }

    #[test]
    fn chain_tail_skips_call_groups() {
        let m = "self.shard(warp).lock()";
        let at = m.find(".lock").unwrap();
        assert_eq!(chain_tail_ident(m, at).unwrap().1, "shard");
        let m2 = "self.list.offset + 16";
        let at2 = m2.find(" +").unwrap();
        assert_eq!(chain_tail_ident(m2, at2).unwrap().1, "offset");
    }

    #[test]
    fn statement_bounds() {
        let m = "fn f() { let a = 1;\n    let b = a + 2; }";
        let at = m.find("a + 2").unwrap();
        assert_eq!(&m[stmt_start(m, at)..stmt_end(m, at)], "let b = a + 2;");
    }

    #[test]
    fn cast_detection() {
        let m = "size as f64 * n";
        assert_eq!(cast_after(m, 4).unwrap().1, "f64");
        assert!(cast_after("size + 1", 4).is_none());
    }
}
