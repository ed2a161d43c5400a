//! Lexer for the VHDL-93 subset.
//!
//! VHDL is case-insensitive: identifiers and keywords are lowercased at
//! lexing time. Like the Verilog lexer, this one is *total* — corrupted
//! input produces located diagnostics, never panics.

use aivril_hdl::diag::{codes, Diagnostic, Diagnostics};
use aivril_hdl::source::{FileId, Span};
use std::borrow::Cow;
use std::fmt;

/// Kinds of token the VHDL lexer produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier (lowercased). Keywords are [`TokenKind::Keyword`].
    Ident,
    /// Reserved word.
    Keyword(Keyword),
    /// Integer literal.
    Number,
    /// Character literal contents, e.g. `0` from `'0'`.
    CharLit,
    /// String literal contents (bit-string or report message).
    StrLit,
    /// Hex bit-string literal contents, e.g. `A5` from `x"A5"`.
    HexString,
    /// Operator / punctuation.
    Punct(Punct),
    /// End of input.
    Eof,
}

/// Reserved words of the supported subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Keyword {
    Library,
    Use,
    Entity,
    Architecture,
    Of,
    Is,
    Begin,
    End,
    Port,
    Generic,
    Map,
    In,
    Out,
    Inout,
    Signal,
    Constant,
    Variable,
    Process,
    If,
    Then,
    Elsif,
    Else,
    Case,
    When,
    Others,
    For,
    Loop,
    To,
    Downto,
    While,
    Wait,
    Until,
    And,
    Or,
    Xor,
    Nand,
    Nor,
    Xnor,
    Not,
    Mod,
    Rem,
    Sll,
    Srl,
    Report,
    Severity,
    Assert,
    Null,
    After,
    All,
    Component,
    True,
    False,
}

impl Keyword {
    /// Looks up a keyword from lowercased identifier text.
    #[must_use]
    pub fn from_str(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "library" => Library,
            "use" => Use,
            "entity" => Entity,
            "architecture" => Architecture,
            "of" => Of,
            "is" => Is,
            "begin" => Begin,
            "end" => End,
            "port" => Port,
            "generic" => Generic,
            "map" => Map,
            "in" => In,
            "out" => Out,
            "inout" => Inout,
            "signal" => Signal,
            "constant" => Constant,
            "variable" => Variable,
            "process" => Process,
            "if" => If,
            "then" => Then,
            "elsif" => Elsif,
            "else" => Else,
            "case" => Case,
            "when" => When,
            "others" => Others,
            "for" => For,
            "loop" => Loop,
            "to" => To,
            "downto" => Downto,
            "while" => While,
            "wait" => Wait,
            "until" => Until,
            "and" => And,
            "or" => Or,
            "xor" => Xor,
            "nand" => Nand,
            "nor" => Nor,
            "xnor" => Xnor,
            "not" => Not,
            "mod" => Mod,
            "rem" => Rem,
            "sll" => Sll,
            "srl" => Srl,
            "report" => Report,
            "severity" => Severity,
            "assert" => Assert,
            "null" => Null,
            "after" => After,
            "all" => All,
            "component" => Component,
            "true" => True,
            "false" => False,
            _ => return None,
        })
    }

    /// Canonical lowercase spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        use Keyword::*;
        match self {
            Library => "library",
            Use => "use",
            Entity => "entity",
            Architecture => "architecture",
            Of => "of",
            Is => "is",
            Begin => "begin",
            End => "end",
            Port => "port",
            Generic => "generic",
            Map => "map",
            In => "in",
            Out => "out",
            Inout => "inout",
            Signal => "signal",
            Constant => "constant",
            Variable => "variable",
            Process => "process",
            If => "if",
            Then => "then",
            Elsif => "elsif",
            Else => "else",
            Case => "case",
            When => "when",
            Others => "others",
            For => "for",
            Loop => "loop",
            To => "to",
            Downto => "downto",
            While => "while",
            Wait => "wait",
            Until => "until",
            And => "and",
            Or => "or",
            Xor => "xor",
            Nand => "nand",
            Nor => "nor",
            Xnor => "xnor",
            Not => "not",
            Mod => "mod",
            Rem => "rem",
            Sll => "sll",
            Srl => "srl",
            Report => "report",
            Severity => "severity",
            Assert => "assert",
            Null => "null",
            After => "after",
            All => "all",
            Component => "component",
            True => "true",
            False => "false",
        }
    }
}

/// Operators and punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Punct {
    LParen,
    RParen,
    Semi,
    Comma,
    Colon,
    Dot,
    Amp,
    Tick,
    Bar,
    Assign,    // :=
    SigAssign, // <=  (also relational less-equal; context decides)
    Arrow,     // =>
    Eq,        // =
    Ne,        // /=
    Lt,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    Star2,
}

impl Punct {
    /// Canonical source spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            Semi => ";",
            Comma => ",",
            Colon => ":",
            Dot => ".",
            Amp => "&",
            Tick => "'",
            Bar => "|",
            Assign => ":=",
            SigAssign => "<=",
            Arrow => "=>",
            Eq => "=",
            Ne => "/=",
            Lt => "<",
            Gt => ">",
            Ge => ">=",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Star2 => "**",
        }
    }
}

impl fmt::Display for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lexed token.
///
/// The text borrows from the source (or, for punctuation, from
/// [`Punct::as_str`]); it is owned only where the lexer rewrites bytes:
/// identifiers with uppercase letters (lowercased) and numbers with
/// `_` separators (removed).
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'src> {
    /// Kind.
    pub kind: TokenKind,
    /// Text (lowercased identifiers; unquoted literal contents).
    pub text: Cow<'src, str>,
    /// Location.
    pub span: Span,
}

impl Token<'_> {
    /// Human-readable description for error messages.
    #[must_use]
    pub fn describe(&self) -> String {
        match &self.kind {
            TokenKind::Eof => "end of file".to_string(),
            TokenKind::StrLit => format!("\"{}\"", self.text),
            TokenKind::CharLit => format!("'{}'", self.text),
            _ => format!("'{}'", self.text),
        }
    }
}

/// Lexes VHDL `text` into tokens, appending errors to `diags`.
pub fn lex<'src>(file: FileId, text: &'src str, diags: &mut Diagnostics) -> Vec<Token<'src>> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0usize;
    let span = |s: usize, e: usize| Span::new(file, s as u32, e as u32);
    while pos < bytes.len() {
        let start = pos;
        let c = bytes[pos];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => pos += 1,
            b'-' if bytes.get(pos + 1) == Some(&b'-') => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while matches!(
                    bytes.get(pos),
                    Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
                ) {
                    pos += 1;
                }
                let raw = &text[start..pos];
                // Hex bit-string: x"A5"
                if (raw == "x" || raw == "X") && bytes.get(pos) == Some(&b'"') {
                    pos += 1;
                    let content_start = pos;
                    while pos < bytes.len() && bytes[pos] != b'"' {
                        pos += 1;
                    }
                    let content = &text[content_start..pos];
                    if pos < bytes.len() {
                        pos += 1;
                    } else {
                        diags.push(Diagnostic::error(
                            codes::VHDL_SYNTAX,
                            "unterminated bit-string literal",
                            span(start, pos),
                        ));
                    }
                    tokens.push(Token {
                        kind: TokenKind::HexString,
                        text: Cow::Borrowed(content),
                        span: span(start, pos),
                    });
                    continue;
                }
                let lower = if raw.bytes().any(|b| b.is_ascii_uppercase()) {
                    Cow::Owned(raw.to_ascii_lowercase())
                } else {
                    Cow::Borrowed(raw)
                };
                let kind = match Keyword::from_str(&lower) {
                    Some(kw) => TokenKind::Keyword(kw),
                    None => TokenKind::Ident,
                };
                tokens.push(Token {
                    kind,
                    text: lower,
                    span: span(start, pos),
                });
            }
            b'0'..=b'9' => {
                while matches!(bytes.get(pos), Some(b'0'..=b'9' | b'_')) {
                    pos += 1;
                }
                let raw = &text[start..pos];
                tokens.push(Token {
                    kind: TokenKind::Number,
                    text: if raw.contains('_') {
                        Cow::Owned(raw.replace('_', ""))
                    } else {
                        Cow::Borrowed(raw)
                    },
                    span: span(start, pos),
                });
            }
            b'"' => {
                pos += 1;
                let content_start = pos;
                while pos < bytes.len() && bytes[pos] != b'"' {
                    pos += 1;
                }
                let content = &text[content_start..pos];
                if pos < bytes.len() {
                    pos += 1;
                } else {
                    diags.push(Diagnostic::error(
                        codes::VHDL_SYNTAX,
                        "unterminated string literal",
                        span(start, pos),
                    ));
                }
                tokens.push(Token {
                    kind: TokenKind::StrLit,
                    text: Cow::Borrowed(content),
                    span: span(start, pos),
                });
            }
            b'\'' => {
                // Character literal '0' vs attribute tick.
                if pos + 2 < bytes.len() && bytes[pos + 2] == b'\'' {
                    // A quote two bytes on means the byte between is ASCII
                    // (the source is UTF-8), so this slice is one char.
                    let ch = &text[pos + 1..pos + 2];
                    pos += 3;
                    tokens.push(Token {
                        kind: TokenKind::CharLit,
                        text: Cow::Borrowed(ch),
                        span: span(start, pos),
                    });
                } else {
                    pos += 1;
                    tokens.push(Token {
                        kind: TokenKind::Punct(Punct::Tick),
                        text: Cow::Borrowed(Punct::Tick.as_str()),
                        span: span(start, pos),
                    });
                }
            }
            _ => {
                use Punct::*;
                let two = bytes.get(pos + 1).copied();
                let (p, len) = match c {
                    b'(' => (LParen, 1),
                    b')' => (RParen, 1),
                    b';' => (Semi, 1),
                    b',' => (Comma, 1),
                    b':' if two == Some(b'=') => (Assign, 2),
                    b':' => (Colon, 1),
                    b'.' => (Dot, 1),
                    b'&' => (Amp, 1),
                    b'|' => (Bar, 1),
                    b'<' if two == Some(b'=') => (SigAssign, 2),
                    b'<' => (Lt, 1),
                    b'>' if two == Some(b'=') => (Ge, 2),
                    b'>' => (Gt, 1),
                    b'=' if two == Some(b'>') => (Arrow, 2),
                    b'=' => (Eq, 1),
                    b'/' if two == Some(b'=') => (Ne, 2),
                    b'/' => (Slash, 1),
                    b'+' => (Plus, 1),
                    b'-' => (Minus, 1),
                    b'*' if two == Some(b'*') => (Star2, 2),
                    b'*' => (Star, 1),
                    other => {
                        pos += 1;
                        diags.push(Diagnostic::error(
                            codes::VHDL_SYNTAX,
                            format!("unexpected character '{}'", other as char),
                            span(start, pos),
                        ));
                        continue;
                    }
                };
                pos += len;
                tokens.push(Token {
                    kind: TokenKind::Punct(p),
                    text: Cow::Borrowed(p.as_str()),
                    span: span(start, pos),
                });
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        text: Cow::Borrowed(""),
        span: span(bytes.len(), bytes.len()),
    });
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivril_hdl::source::SourceMap;

    fn lex_ok(src: &str) -> Vec<Token<'_>> {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.vhd", src);
        let mut diags = Diagnostics::new();
        let toks = lex(file, src, &mut diags);
        assert!(!diags.has_errors(), "unexpected: {:?}", diags.all());
        toks
    }

    #[test]
    fn case_insensitive_keywords() {
        let toks = lex_ok("ENTITY foo IS End");
        assert_eq!(toks[0].kind, TokenKind::Keyword(Keyword::Entity));
        assert_eq!(toks[1].text, "foo");
        assert_eq!(toks[2].kind, TokenKind::Keyword(Keyword::Is));
        assert_eq!(toks[3].kind, TokenKind::Keyword(Keyword::End));
    }

    #[test]
    fn char_and_string_literals() {
        let toks = lex_ok("'0' \"0101\" \"Test Failed\"");
        assert_eq!(toks[0].kind, TokenKind::CharLit);
        assert_eq!(toks[0].text, "0");
        assert_eq!(toks[1].kind, TokenKind::StrLit);
        assert_eq!(toks[1].text, "0101");
        assert_eq!(toks[2].text, "Test Failed");
    }

    #[test]
    fn hex_bit_string() {
        let toks = lex_ok("x\"A5\"");
        assert_eq!(toks[0].kind, TokenKind::HexString);
        assert_eq!(toks[0].text, "A5");
    }

    #[test]
    fn attribute_tick_vs_char() {
        let toks = lex_ok("clk'event");
        assert_eq!(toks[0].text, "clk");
        assert_eq!(toks[1].kind, TokenKind::Punct(Punct::Tick));
        assert_eq!(toks[2].text, "event");
    }

    #[test]
    fn comments_skipped() {
        let toks = lex_ok("a -- comment\nb");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].text, "b");
    }

    #[test]
    fn compound_operators() {
        use Punct::*;
        let toks = lex_ok(":= <= => /= >= **");
        let kinds: Vec<_> = toks[..6].iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Punct(Assign),
                TokenKind::Punct(SigAssign),
                TokenKind::Punct(Arrow),
                TokenKind::Punct(Ne),
                TokenKind::Punct(Ge),
                TokenKind::Punct(Star2),
            ]
        );
    }

    #[test]
    fn text_borrows_except_where_rewritten() {
        let toks = lex_ok("entity Foo is x\"A5\" '0' \"s\" 1_0 10 <= end");
        let owned: Vec<&str> = toks
            .iter()
            .filter(|t| matches!(t.text, Cow::Owned(_)))
            .map(|t| &*t.text)
            .collect();
        assert_eq!(owned, ["foo", "10"]);
    }

    #[test]
    fn token_is_no_larger_than_with_owned_text() {
        assert!(std::mem::size_of::<Token<'_>>() <= 40);
    }

    #[test]
    fn numbers_with_underscores() {
        let toks = lex_ok("1_000");
        assert_eq!(toks[0].text, "1000");
    }

    #[test]
    fn bad_character_reported() {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.vhd", "a @ b");
        let mut diags = Diagnostics::new();
        let toks = lex(file, "a @ b", &mut diags);
        assert!(diags.has_errors());
        assert!(toks.iter().any(|t| t.text == "b"));
    }
}
