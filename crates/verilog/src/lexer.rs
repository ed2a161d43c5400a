//! Lexer for the Verilog-2001 subset.
//!
//! The lexer is *total*: any byte sequence produces a token stream, with
//! unrecognised characters reported as syntax diagnostics. This matters
//! because the AIVRIL2 loop feeds it LLM-corrupted source — garbage must
//! surface as a well-located error, never a panic.
//!
//! Token text borrows from the source; see [`Token`] for the few
//! literals that own rewritten text.

use crate::token::{Keyword, Punct, Token, TokenKind};
use aivril_hdl::diag::{codes, Diagnostic, Diagnostics};
use aivril_hdl::source::{FileId, Span};
use std::borrow::Cow;

/// Lexes `text` (registered as `file`) into tokens, appending any
/// lexical errors to `diags`. Always ends with an [`TokenKind::Eof`]
/// token.
pub fn lex<'src>(file: FileId, text: &'src str, diags: &mut Diagnostics) -> Vec<Token<'src>> {
    Lexer {
        file,
        src: text,
        bytes: text.as_bytes(),
        pos: 0,
        tokens: Vec::new(),
    }
    .run(diags)
}

struct Lexer<'src> {
    file: FileId,
    src: &'src str,
    bytes: &'src [u8],
    pos: usize,
    tokens: Vec<Token<'src>>,
}

impl<'src> Lexer<'src> {
    fn run(mut self, diags: &mut Diagnostics) -> Vec<Token<'src>> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let c = self.bytes[self.pos];
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => {
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.pos += 2;
                    let mut closed = false;
                    while self.pos + 1 < self.bytes.len() {
                        if self.bytes[self.pos] == b'*' && self.bytes[self.pos + 1] == b'/' {
                            self.pos += 2;
                            closed = true;
                            break;
                        }
                        self.pos += 1;
                    }
                    if !closed {
                        self.pos = self.bytes.len();
                        diags.push(Diagnostic::error(
                            codes::VLOG_SYNTAX,
                            "unterminated block comment",
                            self.span(start),
                        ));
                    }
                }
                b'"' => self.lex_string(start, diags),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(start),
                b'\\' => self.lex_escaped_ident(start),
                b'$' => self.lex_sys_ident(start, diags),
                b'0'..=b'9' | b'\'' => self.lex_number(start, diags),
                b'`' => {
                    // Compiler directives (`timescale etc.): skip the line.
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => self.lex_punct(start, diags),
            }
        }
        let end = self.bytes.len();
        self.tokens.push(Token {
            kind: TokenKind::Eof,
            text: Cow::Borrowed(""),
            span: Span::new(self.file, end as u32, end as u32),
        });
        self.tokens
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn span(&self, start: usize) -> Span {
        Span::new(self.file, start as u32, self.pos as u32)
    }

    /// Source text from `start` to the cursor. Every caller's bounds sit
    /// on ASCII bytes (or the end of input), so the slice is whole chars.
    fn text(&self, start: usize) -> &'src str {
        &self.src[start..self.pos]
    }

    fn push(&mut self, kind: TokenKind, text: impl Into<Cow<'src, str>>, start: usize) {
        let span = self.span(start);
        self.tokens.push(Token {
            kind,
            text: text.into(),
            span,
        });
    }

    /// Plain ASCII contents borrow from the source; an escape or a
    /// non-ASCII byte switches to [`Lexer::decode_string`].
    fn lex_string(&mut self, start: usize, diags: &mut Diagnostics) {
        self.pos += 1;
        let content_start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii() && !matches!(b, b'"' | b'\\' | b'\n'))
        {
            self.pos += 1;
        }
        let text = if matches!(self.bytes.get(self.pos), Some(b'\\' | 0x80..)) {
            Cow::Owned(self.decode_string(content_start))
        } else {
            Cow::Borrowed(&self.src[content_start..self.pos])
        };
        if self.bytes.get(self.pos) == Some(&b'"') {
            self.pos += 1;
        } else {
            diags.push(Diagnostic::error(
                codes::VLOG_SYNTAX,
                "unterminated string literal",
                Span::new(self.file, start as u32, content_start as u32),
            ));
        }
        self.push(TokenKind::Str, text, start);
    }

    /// Owned contents of a string literal whose plain prefix ends at the
    /// cursor: escapes decode and every other byte maps to one `char`
    /// (Latin-1), as xvlog reads it. Stops at the closing quote or line
    /// end without consuming it.
    fn decode_string(&mut self, content_start: usize) -> String {
        let mut text = self.src[content_start..self.pos].to_owned();
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'"' | b'\n' => break,
                b'\\' => {
                    // Escape sequences: \n \t \\ \" pass through decoded.
                    if let Some(next) = self.peek(1) {
                        text.push(match next {
                            b'n' => '\n',
                            b't' => '\t',
                            other => other as char,
                        });
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                    }
                }
                other => {
                    text.push(other as char);
                    self.pos += 1;
                }
            }
        }
        text
    }

    fn lex_ident(&mut self, start: usize) {
        while matches!(
            self.bytes.get(self.pos),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'$')
        ) {
            self.pos += 1;
        }
        let text = self.text(start);
        // A number base suffix can follow a size: handled in lex_number,
        // so here any word is an identifier or keyword.
        let kind = match Keyword::from_str(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident,
        };
        self.push(kind, text, start);
    }

    fn lex_escaped_ident(&mut self, start: usize) {
        self.pos += 1;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| !b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
        let text = self.text(start + 1);
        self.push(TokenKind::Ident, text, start);
    }

    fn lex_sys_ident(&mut self, start: usize, _diags: &mut Diagnostics) {
        self.pos += 1;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
        ) {
            self.pos += 1;
        }
        let text = self.text(start);
        self.push(TokenKind::SysIdent, text, start);
    }

    /// Lexes decimal, sized and based literals: `42`, `8'hFF`, `'b01xz`,
    /// `4'd1_0`. The whole literal becomes a single `Number` token whose
    /// text is parsed for value later (keeping the lexer total).
    fn lex_number(&mut self, start: usize, diags: &mut Diagnostics) {
        // Optional size digits.
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9' | b'_')) {
            self.pos += 1;
        }
        // Optional whitespace before the base tick (legal Verilog).
        let mut look = self.pos;
        while matches!(self.bytes.get(look), Some(b' ' | b'\t')) {
            look += 1;
        }
        if self.bytes.get(look) == Some(&b'\'') {
            self.pos = look + 1;
            // Base character, after an optional signed marker. Only an
            // actual base is stepped over, so the cursor stays on a char
            // boundary whatever follows.
            let signed = usize::from(matches!(self.bytes.get(self.pos), Some(b's' | b'S')));
            match self.bytes.get(self.pos + signed) {
                Some(b'b' | b'B' | b'o' | b'O' | b'd' | b'D' | b'h' | b'H') => {
                    self.pos += signed + 1;
                    // Optional whitespace between base and digits.
                    while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t')) {
                        self.pos += 1;
                    }
                    while matches!(
                        self.bytes.get(self.pos),
                        Some(
                            b'0'..=b'9'
                            | b'a'..=b'f'
                            | b'A'..=b'F'
                            | b'x'
                            | b'X'
                            | b'z'
                            | b'Z'
                            | b'?'
                            | b'_',
                        )
                    ) {
                        self.pos += 1;
                    }
                }
                _ => {
                    diags.push(Diagnostic::error(
                        codes::VLOG_SYNTAX,
                        "expected base specifier after \"'\" in number literal",
                        self.span(start),
                    ));
                }
            }
        }
        let text = self.text(start);
        if text.contains([' ', '\t']) {
            self.push(TokenKind::Number, text.replace([' ', '\t'], ""), start);
        } else {
            self.push(TokenKind::Number, text, start);
        }
    }

    fn lex_punct(&mut self, start: usize, diags: &mut Diagnostics) {
        use Punct::*;
        let c = self.bytes[self.pos];
        let two = |l: &Lexer<'_>| l.peek(1);
        let three = |l: &Lexer<'_>| l.peek(2);
        let (p, len) = match c {
            b'(' => (LParen, 1),
            b')' => (RParen, 1),
            b'[' => (LBracket, 1),
            b']' => (RBracket, 1),
            b'{' => (LBrace, 1),
            b'}' => (RBrace, 1),
            b';' => (Semi, 1),
            b',' => (Comma, 1),
            b':' => (Colon, 1),
            b'.' => (Dot, 1),
            b'#' => (Hash, 1),
            b'@' => (At, 1),
            b'?' => (Question, 1),
            b'+' => (Plus, 1),
            b'-' => (Minus, 1),
            b'*' if two(self) == Some(b'*') => (Star2, 2),
            b'*' => (Star, 1),
            b'/' => (Slash, 1),
            b'%' => (Percent, 1),
            b'&' if two(self) == Some(b'&') => (AmpAmp, 2),
            b'&' => (Amp, 1),
            b'|' if two(self) == Some(b'|') => (PipePipe, 2),
            b'|' => (Pipe, 1),
            b'^' if two(self) == Some(b'~') => (TildeCaret, 2),
            b'^' => (Caret, 1),
            b'~' if two(self) == Some(b'^') => (TildeCaret, 2),
            b'~' if two(self) == Some(b'&') => (TildeAmp, 2),
            b'~' if two(self) == Some(b'|') => (TildePipe, 2),
            b'~' => (Tilde, 1),
            b'!' if two(self) == Some(b'=') && three(self) == Some(b'=') => (CaseNotEq, 3),
            b'!' if two(self) == Some(b'=') => (NotEq, 2),
            b'!' => (Bang, 1),
            b'=' if two(self) == Some(b'=') && three(self) == Some(b'=') => (CaseEq, 3),
            b'=' if two(self) == Some(b'=') => (EqEq, 2),
            b'=' => (Assign, 1),
            b'<' if two(self) == Some(b'=') => (LtEqual, 2),
            b'<' if two(self) == Some(b'<') => (Shl, 2),
            b'<' => (Lt, 1),
            b'>' if two(self) == Some(b'=') => (GtEq, 2),
            b'>' if two(self) == Some(b'>') => (Shr, 2),
            b'>' => (Gt, 1),
            other => {
                self.pos += 1;
                diags.push(Diagnostic::error(
                    codes::VLOG_SYNTAX,
                    format!("unexpected character '{}'", other as char),
                    self.span(start),
                ));
                return;
            }
        };
        self.pos += len;
        self.push(TokenKind::Punct(p), p.as_str(), start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivril_hdl::source::SourceMap;

    fn lex_ok(src: &str) -> Vec<Token<'_>> {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.v", src);
        let mut diags = Diagnostics::new();
        let toks = lex(file, src, &mut diags);
        assert!(!diags.has_errors(), "unexpected errors: {:?}", diags.all());
        toks
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex_ok(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_idents() {
        let toks = lex_ok("module foo_1;");
        assert_eq!(toks[0].kind, TokenKind::Keyword(Keyword::Module));
        assert_eq!(toks[1].kind, TokenKind::Ident);
        assert_eq!(toks[1].text, "foo_1");
        assert_eq!(toks[2].kind, TokenKind::Punct(Punct::Semi));
        assert_eq!(toks[3].kind, TokenKind::Eof);
    }

    #[test]
    fn numbers() {
        let toks = lex_ok("42 8'hFF 4'b10xz 'd9 16'd1_000");
        let texts: Vec<&str> = toks[..5].iter().map(|t| &*t.text).collect();
        assert_eq!(texts, vec!["42", "8'hFF", "4'b10xz", "'d9", "16'd1_000"]);
        assert!(toks[..5].iter().all(|t| t.kind == TokenKind::Number));
    }

    #[test]
    fn operators_longest_match() {
        use Punct::*;
        assert_eq!(
            kinds("=== == = !== != ! <= << < ~^ ~& ~| **"),
            vec![
                TokenKind::Punct(CaseEq),
                TokenKind::Punct(EqEq),
                TokenKind::Punct(Assign),
                TokenKind::Punct(CaseNotEq),
                TokenKind::Punct(NotEq),
                TokenKind::Punct(Bang),
                TokenKind::Punct(LtEqual),
                TokenKind::Punct(Shl),
                TokenKind::Punct(Lt),
                TokenKind::Punct(TildeCaret),
                TokenKind::Punct(TildeAmp),
                TokenKind::Punct(TildePipe),
                TokenKind::Punct(Star2),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex_ok("a // line comment\n/* block\ncomment */ b");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0].text, "a");
        assert_eq!(toks[1].text, "b");
    }

    #[test]
    fn string_escapes() {
        let toks = lex_ok(r#""hello\nworld""#);
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(toks[0].text, "hello\nworld");
    }

    #[test]
    fn text_borrows_except_where_rewritten() {
        let toks = lex_ok(r#"module m; $display("plain", "esc\n", 8 'h FF, 4'b1) ^~ \e$c"#);
        let owned: Vec<&str> = toks
            .iter()
            .filter(|t| matches!(t.text, Cow::Owned(_)))
            .map(|t| &*t.text)
            .collect();
        assert_eq!(owned, ["esc\n", "8'hFF"]);
        let caret = toks
            .iter()
            .find(|t| t.kind == TokenKind::Punct(Punct::TildeCaret));
        assert_eq!(caret.map(|t| &*t.text), Some("~^"), "^~ reads as ~^");
        assert_eq!(toks[toks.len() - 2].text, "e$c");
    }

    #[test]
    fn non_ascii_string_bytes_decode_one_char_each() {
        let toks = lex_ok("\"caf\u{e9}\"");
        assert_eq!(toks[0].text, "caf\u{c3}\u{a9}");
    }

    #[test]
    fn signed_marker_without_base_is_an_error_not_a_panic() {
        for src in ["8's\u{e9}", "4's", "'S", "8'sq1"] {
            let mut sources = SourceMap::new();
            let file = sources.add_file("t.v", src);
            let mut diags = Diagnostics::new();
            let toks = lex(file, src, &mut diags);
            assert!(
                diags
                    .all()
                    .iter()
                    .any(|d| d.message.contains("base specifier")),
                "{src:?}: {:?}",
                diags.all()
            );
            assert_eq!(toks[0].kind, TokenKind::Number, "{src:?}");
            assert!(toks[0].text.ends_with('\''), "{src:?}: {:?}", toks[0].text);
        }
        let toks = lex_ok("16'sd1_000 4'Sb1");
        let texts: Vec<&str> = toks[..2].iter().map(|t| &*t.text).collect();
        assert_eq!(texts, ["16'sd1_000", "4'Sb1"]);
    }

    #[test]
    fn token_is_no_larger_than_with_owned_text() {
        assert!(std::mem::size_of::<Token<'_>>() <= 40);
    }

    #[test]
    fn sys_idents() {
        let toks = lex_ok("$display $finish");
        assert_eq!(toks[0].kind, TokenKind::SysIdent);
        assert_eq!(toks[0].text, "$display");
        assert_eq!(toks[1].text, "$finish");
    }

    #[test]
    fn directives_skipped() {
        let toks = lex_ok("`timescale 1ns/1ps\nmodule");
        assert_eq!(toks[0].kind, TokenKind::Keyword(Keyword::Module));
    }

    #[test]
    fn bad_character_reports_error_but_continues() {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.v", "a £ b");
        let mut diags = Diagnostics::new();
        let toks = lex(file, "a £ b", &mut diags);
        assert!(diags.has_errors());
        // 'a' and 'b' still lexed (the £ is two utf-8 bytes, each flagged).
        assert!(toks.iter().any(|t| t.text == "a"));
        assert!(toks.iter().any(|t| t.text == "b"));
    }

    #[test]
    fn unterminated_string_is_error() {
        let mut sources = SourceMap::new();
        let src = "\"oops\nmodule";
        let file = sources.add_file("t.v", src);
        let mut diags = Diagnostics::new();
        let _ = lex(file, src, &mut diags);
        assert!(diags.has_errors());
    }

    #[test]
    fn spans_give_correct_lines() {
        let mut sources = SourceMap::new();
        let src = "module m;\nwire w;\nendmodule\n";
        let file = sources.add_file("t.v", src);
        let mut diags = Diagnostics::new();
        let toks = lex(file, src, &mut diags);
        let wire = toks
            .iter()
            .find(|t| t.kind == TokenKind::Keyword(Keyword::Wire))
            .expect("wire token");
        assert_eq!(sources.file(file).line_of(wire.span.start), 2);
    }
}
