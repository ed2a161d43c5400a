//! Token-stream golden test: both lexers must produce exactly the same
//! `(kind, text, span)` stream for every suite source, the fuzz corpus
//! and a set of edge-case inputs, and the parsers the same diagnostics
//! text on malformed inputs.
//!
//! The pinned digests are an FNV-64 over the serialised token streams.
//! Any change to them is a behaviour change of a frontend: token text
//! feeds identifiers, literal values and every `found '...'` message
//! the Review Agent quotes back to the model.

use aivril_hdl::diag::Diagnostics;
use aivril_hdl::source::SourceMap;
use aivril_obs::codec::fnv64;

/// Inputs that take the lexers' rewriting paths: string escapes and
/// non-ASCII bytes, numbers with inner whitespace, escaped identifiers,
/// `^~`, uppercase VHDL names and `_` in VHDL numbers.
const VERILOG_EDGES: &[&str] = &[
    "module m; initial $display(\"a\\tb\\n\\\"q\\\" \\\\ \\x\"); endmodule",
    "module m; initial $display(\"caf\u{e9} \u{263a}\"); endmodule",
    "module m; wire [7:0] w = 8 'h FF; wire [3:0] v = 4'b 10_1z; endmodule",
    "module \\esc[0] (input a); assign y = a ^~ b ~^ c; endmodule",
    "module m; wire w = 'd9 + 16'sd1_000 + 8'Hx?; endmodule",
    "\"unterminated\nmodule m; endmodule",
    "a \u{a3} b `define X 1\n$time",
];

const VHDL_EDGES: &[&str] = &[
    "ENTITY Foo IS PORT (A : IN Bit; Y : OUT Std_Logic); END Foo;",
    "architecture RTL of foo is begin y <= x\"A5\" & '0' & \"01\"; end RTL;",
    "constant N : integer := 1_000_000 + 42; clk'event",
    "x <= \"unterminated\n report \"caf\u{e9}\" severity Note; @ \u{263a}",
];

fn suite() -> Vec<aivril_verilogeval::Problem> {
    aivril_verilogeval::suite()
}

fn verilog_digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> (u64, usize) {
    let mut buf = Vec::new();
    let mut count = 0;
    for text in texts {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.v", text.to_string());
        let mut diags = Diagnostics::new();
        for tok in aivril_verilog::lex(file, sources.file(file).text(), &mut diags) {
            push_token(&mut buf, &format!("{:?}", tok.kind), &tok.text, tok.span);
            count += 1;
        }
    }
    (fnv64(&buf), count)
}

fn vhdl_digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> (u64, usize) {
    let mut buf = Vec::new();
    let mut count = 0;
    for text in texts {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.vhd", text.to_string());
        let mut diags = Diagnostics::new();
        for tok in aivril_vhdl::lex(file, sources.file(file).text(), &mut diags) {
            push_token(&mut buf, &format!("{:?}", tok.kind), &tok.text, tok.span);
            count += 1;
        }
    }
    (fnv64(&buf), count)
}

/// Length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
fn push_token(buf: &mut Vec<u8>, kind: &str, text: &str, span: aivril_hdl::source::Span) {
    for field in [kind.as_bytes(), text.as_bytes()] {
        buf.extend_from_slice(&(field.len() as u64).to_le_bytes());
        buf.extend_from_slice(field);
    }
    buf.extend_from_slice(&span.start.to_le_bytes());
    buf.extend_from_slice(&span.end.to_le_bytes());
}

#[test]
fn verilog_suite_token_stream_is_pinned() {
    let suite = suite();
    assert_eq!(suite.len(), 156);
    let texts = suite
        .iter()
        .flat_map(|p| [p.verilog.dut.as_str(), p.verilog.tb.as_str()]);
    let (digest, count) = verilog_digest(texts);
    assert_eq!(
        (digest, count),
        (0x75de_e98e_380e_ca47, 658_802),
        "got {digest:#018x} over {count} tokens"
    );
}

#[test]
fn vhdl_suite_token_stream_is_pinned() {
    let suite = suite();
    let texts = suite
        .iter()
        .flat_map(|p| [p.vhdl.dut.as_str(), p.vhdl.tb.as_str()]);
    let (digest, count) = vhdl_digest(texts);
    assert_eq!(
        (digest, count),
        (0xda06_f85d_033b_efdb, 471_858),
        "got {digest:#018x} over {count} tokens"
    );
}

/// The fuzz corpus (first 16 problems, both languages) lexed by *both*
/// frontends, as `frontend_fuzz` feeds every text to each of them.
#[test]
fn fuzz_corpus_token_streams_are_pinned() {
    let suite = suite();
    let corpus: Vec<&str> = suite
        .iter()
        .take(16)
        .flat_map(|p| {
            [
                p.verilog.dut.as_str(),
                p.verilog.tb.as_str(),
                p.vhdl.dut.as_str(),
                p.vhdl.tb.as_str(),
            ]
        })
        .collect();
    let verilog = verilog_digest(corpus.iter().copied());
    let vhdl = vhdl_digest(corpus.iter().copied());
    assert_eq!(
        (verilog, vhdl),
        (
            (0xb766_4c18_5cab_e1bb, 95_526),
            (0x2b84_dbd5_7f3f_70e7, 104_909)
        ),
        "got {verilog:x?} {vhdl:x?}"
    );
}

#[test]
fn edge_case_token_streams_are_pinned() {
    let verilog = verilog_digest(VERILOG_EDGES.iter().copied());
    let vhdl = vhdl_digest(VHDL_EDGES.iter().copied());
    assert_eq!(
        (verilog, vhdl),
        ((0xa9e2_ccb4_62af_b5aa, 89), (0xef2b_d254_f5d1_3704, 57)),
        "got {verilog:x?} {vhdl:x?}"
    );
}

fn verilog_log(text: &str) -> String {
    let mut sources = SourceMap::new();
    sources.add_file("bad.v", text.to_string());
    let (_, diags) = aivril_verilog::analyze(&sources);
    diags.render(&sources)
}

fn vhdl_log(text: &str) -> String {
    let mut sources = SourceMap::new();
    sources.add_file("bad.vhd", text.to_string());
    let (_, diags) = aivril_vhdl::analyze(&sources);
    diags.render(&sources)
}

#[test]
fn verilog_diagnostics_quote_tokens_unchanged() {
    let logs: Vec<String> = [
        "module ^~ m; endmodule",
        "module m;\ninitial $display(\"oops\nendmodule",
        "module 8 'h FF;\nendmodule",
        "module \"caf\u{e9}\"; endmodule",
        "module m; wire \u{a3}; endmodule",
    ]
    .into_iter()
    .map(verilog_log)
    .collect();
    assert_eq!(
        logs,
        [
            "ERROR: [VRFC 10-91] expected identifier, found '~^' [bad.v:1]\n\
             ERROR: [VRFC 10-91] expected 'module', found '~^' [bad.v:1]\n",
            "ERROR: [VRFC 10-91] unterminated string literal [bad.v:2]\n\
             ERROR: [VRFC 10-91] expected ')', found 'endmodule' [bad.v:3]\n",
            "ERROR: [VRFC 10-91] expected identifier, found '8'hFF' [bad.v:1]\n\
             ERROR: [VRFC 10-91] expected 'module', found '8'hFF' [bad.v:1]\n",
            // Non-ASCII string bytes decode one byte per char (Latin-1).
            "ERROR: [VRFC 10-91] expected identifier, found \"caf\u{c3}\u{a9}\" [bad.v:1]\n\
             ERROR: [VRFC 10-91] expected 'module', found \"caf\u{c3}\u{a9}\" [bad.v:1]\n",
            "ERROR: [VRFC 10-91] unexpected character '\u{c2}' [bad.v:1]\n\
             ERROR: [VRFC 10-91] unexpected character '\u{a3}' [bad.v:1]\n\
             ERROR: [VRFC 10-91] expected identifier, found ';' [bad.v:1]\n",
        ]
    );
}

/// A signed marker with no base after it is a diagnosed error, whatever
/// byte follows (here a non-ASCII char, and the end of input). These are
/// kept out of `VERILOG_EDGES`: the lexer used to step over the byte
/// after the `s`, so no earlier stream exists to pin against.
#[test]
fn verilog_signed_marker_without_base_is_diagnosed() {
    let logs: Vec<String> = [
        "module m; wire w = 8's\u{e9};\nendmodule",
        "module m; wire w = 4's",
    ]
    .into_iter()
    .map(verilog_log)
    .collect();
    assert_eq!(
        logs,
        [
            "ERROR: [VRFC 10-91] expected base specifier after \"'\" in number literal [bad.v:1]\n\
             ERROR: [VRFC 10-91] unexpected character '\u{c3}' [bad.v:1]\n\
             ERROR: [VRFC 10-91] unexpected character '\u{a9}' [bad.v:1]\n\
             ERROR: [VRFC 10-91] expected ';', found 's' [bad.v:1]\n",
            "ERROR: [VRFC 10-91] expected base specifier after \"'\" in number literal [bad.v:1]\n\
             ERROR: [VRFC 10-91] expected ';', found 's' [bad.v:1]\n\
             ERROR: [VRFC 10-91] expected 'endmodule', found end of file [bad.v:1]\n",
        ]
    );
}

#[test]
fn vhdl_diagnostics_quote_tokens_unchanged() {
    let logs: Vec<String> = [
        "ENTITY Foo IS END Foo;\nARCHITECTURE Rtl OF Foo IS BEGIN\nFOO BAR;\nEND Rtl;",
        "entity 1_000 is end;",
        "entity \"Caf\u{e9}\" is end;",
        "entity e is end e; architecture a of e is begin\nY <= 'Q' 'Z'; end a;",
    ]
    .into_iter()
    .map(vhdl_log)
    .collect();
    assert_eq!(
        logs,
        [
            "ERROR: [VRFC 10-1412] expected '<=', found 'bar' [bad.vhd:3]\n",
            "ERROR: [VRFC 10-1412] expected identifier, found '1000' [bad.vhd:1]\n",
            "ERROR: [VRFC 10-1412] expected identifier, found \"Caf\u{e9}\" [bad.vhd:1]\n",
            "ERROR: [VRFC 10-1412] expected ';', found 'Z' [bad.vhd:2]\n",
        ]
    );
}

/// An integer literal too large for the 64-bit integer type is an
/// error, not a silent zero (which used to make `n = 0` true below).
#[test]
fn vhdl_integer_literal_out_of_range_is_diagnosed() {
    let log = vhdl_log(
        "entity tb is end tb;\narchitecture sim of tb is begin\nprocess\n\
         variable n : integer;\nbegin\nn := 99999999999999999999;\n\
         if n = 0 then report \"n is zero\"; end if;\nwait;\nend process;\nend sim;",
    );
    assert_eq!(
        log,
        "ERROR: [VRFC 10-1412] integer literal '99999999999999999999' is out of range [bad.vhd:6]\n"
    );
}
