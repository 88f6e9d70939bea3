//! A minimal line-oriented Rust lexer.
//!
//! The linter does not need a parse tree — every rule in `docs/LINTS.md` is
//! expressible over *lines* once comments and literal contents are masked
//! out. This module produces, for each source line, the line's code with
//! comment text and string/char-literal contents replaced by spaces, plus
//! the comment text that appeared on the line. Cross-line state (nested
//! block comments, multiline and raw strings) is tracked so a `SAFETY:`
//! inside a string can never satisfy rule L1 and an `unsafe` inside a
//! comment can never trip it.

/// One lexed source line.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The line with comments removed and literal contents masked to
    /// spaces (quote characters are kept so the column count is stable).
    pub code: String,
    /// Concatenated text of every comment on the line (line, block, or
    /// doc), without the comment markers.
    pub comment: String,
}

impl Line {
    /// True when the line carries no code (blank, or comment-only).
    pub fn is_code_blank(&self) -> bool {
        self.code.trim().is_empty()
    }

    /// True when the line is only an attribute (outer or inner), which the
    /// block-above walks skip over.
    pub fn is_attr_only(&self) -> bool {
        let t = self.code.trim();
        (t.starts_with("#[") || t.starts_with("#![")) && t.ends_with(']')
    }

    /// True when the line carries a comment but no code.
    pub fn is_comment_only(&self) -> bool {
        self.is_code_blank() && !self.comment.trim().is_empty()
    }
}

/// Lexer mode carried across lines.
enum Mode {
    Code,
    /// Nested block comment depth.
    Block(u32),
    /// Ordinary (possibly multiline) string literal.
    Str,
    /// Raw string with this many `#` delimiters.
    RawStr(u32),
}

/// True when `c` can be part of an identifier.
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `code` contain `word` at an identifier boundary?
pub fn has_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = code[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let after_ok = code[at + word.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// Lex a whole file into per-line code/comment splits.
pub fn lex(src: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    for raw in src.lines() {
        let mut line = Line::default();
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match mode {
                Mode::Block(depth) => {
                    if c == '*' && chars.get(i + 1) == Some(&'/') {
                        line.comment.push(' ');
                        i += 2;
                        mode = if depth == 1 {
                            Mode::Code
                        } else {
                            Mode::Block(depth - 1)
                        };
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        line.comment.push(' ');
                        i += 2;
                        mode = Mode::Block(depth + 1);
                    } else {
                        line.comment.push(c);
                        i += 1;
                    }
                }
                Mode::Str => {
                    if c == '\\' {
                        line.code.push_str("  ");
                        i += 2;
                    } else if c == '"' {
                        line.code.push('"');
                        i += 1;
                        mode = Mode::Code;
                    } else {
                        line.code.push(' ');
                        i += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if c == '"' {
                        let n = hashes as usize;
                        let closes = (0..n).all(|k| chars.get(i + 1 + k) == Some(&'#'));
                        if closes {
                            line.code.push('"');
                            for _ in 0..n {
                                line.code.push('#');
                            }
                            i += 1 + n;
                            mode = Mode::Code;
                            continue;
                        }
                    }
                    line.code.push(' ');
                    i += 1;
                }
                Mode::Code => {
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        // Line comment: strip the marker run (`//`, `///`,
                        // `//!`) and keep the text.
                        let mut j = i + 2;
                        while chars.get(j) == Some(&'/') || chars.get(j) == Some(&'!') {
                            j += 1;
                        }
                        line.comment.extend(&chars[j..]);
                        i = chars.len();
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        i += 2;
                        if chars.get(i) == Some(&'*') || chars.get(i) == Some(&'!') {
                            i += 1; // doc block comment marker
                        }
                        mode = Mode::Block(1);
                    } else if c == '"' {
                        // Raw string? Look back for `r`/`br` + hashes.
                        let tail_hashes = line.code.chars().rev().take_while(|&h| h == '#').count();
                        let before: String =
                            line.code.chars().rev().skip(tail_hashes).take(3).collect();
                        let mut b = before.chars();
                        let is_raw = match b.next() {
                            Some('r') => b.next().is_none_or(|p| !is_ident(p) || p == 'b'),
                            _ => false,
                        };
                        line.code.push('"');
                        i += 1;
                        mode = if is_raw {
                            Mode::RawStr(tail_hashes as u32)
                        } else {
                            Mode::Str
                        };
                    } else if c == '\'' {
                        // Char literal vs lifetime. `'\...'` and `'x'` are
                        // literals; `'ident` (no close quote right after)
                        // is a lifetime or loop label.
                        if chars.get(i + 1) == Some(&'\\') {
                            line.code.push('\'');
                            i += 2;
                            while i < chars.len() && chars[i] != '\'' {
                                line.code.push(' ');
                                i += 1;
                            }
                            if i < chars.len() {
                                line.code.push('\'');
                                i += 1;
                            }
                        } else if chars.get(i + 2) == Some(&'\'') {
                            line.code.push_str("' '");
                            i += 3;
                        } else {
                            line.code.push('\'');
                            i += 1;
                        }
                    } else {
                        line.code.push(c);
                        i += 1;
                    }
                }
            }
        }
        if let Mode::Block(_) = mode {
            // keep collecting comment text on the next line
        }
        out.push(line);
    }
    out
}

/// Comment text covering line `idx`, nearest first: the line's own
/// comment, then each line of the contiguous comment/attribute-only block
/// directly above it (so `#[inline]` between a comment and its item does
/// not sever them). `SAFETY:` justifications, waivers and `sc:` tags are
/// all looked up through this one walker.
pub(crate) fn covering_comments(lines: &[Line], idx: usize) -> impl Iterator<Item = &str> {
    let above = lines[..idx]
        .iter()
        .rev()
        .take_while(|l| l.is_comment_only() || l.is_attr_only());
    std::iter::once(&lines[idx])
        .chain(above)
        .map(|l| l.comment.as_str())
}

/// Index of the first line of the file's trailing test module, if any.
///
/// Heuristic that matches this workspace's layout: a `#[cfg(...)]`
/// attribute whose argument mentions `test`, followed within a few lines by
/// a `mod` item, starts test code that runs to the end of the file. Rules
/// L1–L5 skip everything at or after this line.
pub fn test_region_start(lines: &[Line]) -> Option<usize> {
    for (idx, line) in lines.iter().enumerate() {
        let t = line.code.trim();
        if t.starts_with("#[cfg(") && t.contains("test") {
            for follow in lines.iter().skip(idx + 1).take(4) {
                let ft = follow.code.trim();
                if ft.starts_with("mod ") || ft.starts_with("pub mod ") {
                    return Some(idx);
                }
                if !follow.is_code_blank() && !follow.is_attr_only() {
                    break;
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_comments() {
        let l = lex("let x = 1; // unsafe here\n");
        assert!(!has_word(&l[0].code, "unsafe"));
        assert!(l[0].comment.contains("unsafe here"));
    }

    #[test]
    fn masks_strings_and_chars() {
        let l = lex("let s = \"unsafe Ordering::Relaxed\"; let c = 'u';");
        assert!(!has_word(&l[0].code, "unsafe"));
        assert!(!l[0].code.contains("Relaxed"));
    }

    #[test]
    fn raw_strings_mask_until_matching_hashes() {
        let src = "let s = r#\"unsafe \" still unsafe\"#; let x = unsafe { 1 };";
        let l = lex(src);
        // The real unsafe after the raw string must survive.
        assert!(has_word(&l[0].code, "unsafe"));
        assert_eq!(l[0].code.matches("unsafe").count(), 1);
    }

    #[test]
    fn nested_block_comments_span_lines() {
        let l = lex("/* a /* b */ unsafe */ let y = 2;\ncode();");
        assert!(!has_word(&l[0].code, "unsafe"));
        assert!(l[0].code.contains("let y"));
        assert!(l[1].code.contains("code()"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { g::<'_>(x); }");
        assert!(l[0].code.contains("&'a str"));
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("unsafe {", "unsafe"));
        assert!(!has_word("unsafe_op_in_unsafe_fn", "unsafe"));
        assert!(!has_word("not_unsafe", "unsafe"));
        assert!(has_word("(unsafe)", "unsafe"));
    }

    #[test]
    fn finds_test_region() {
        let l = lex("fn a() {}\n#[cfg(all(test, not(loom)))]\nmod tests {\n}\n");
        assert_eq!(test_region_start(&l), Some(1));
        let l = lex("fn a() {}\n#[cfg(not(loom))]\nmod imp {\n}\n");
        assert_eq!(test_region_start(&l), None);
    }
}
