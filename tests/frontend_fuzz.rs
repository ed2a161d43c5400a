//! Frontend fuzz suite (proptest): the Verilog and VHDL lexers,
//! parsers and elaborators must be *total* — arbitrary byte soup,
//! mangled real designs and reordered token streams may produce any
//! number of diagnostics, but never a panic.
//!
//! The agent loop feeds LLM-generated (and, under fault injection,
//! truncated or wrong-language) code to these frontends on every
//! iteration, so a panicking corner case is a pipeline-crashing bug.

use aivril_hdl::diag::Diagnostics;
use aivril_hdl::source::SourceMap;
use proptest::prelude::*;
use std::sync::OnceLock;

fn suite() -> &'static [aivril_verilogeval::Problem] {
    static SUITE: OnceLock<Vec<aivril_verilogeval::Problem>> = OnceLock::new();
    SUITE.get_or_init(aivril_verilogeval::suite)
}

/// Real sources to mutate: Verilog and VHDL DUTs and testbenches.
fn corpus() -> &'static [(bool, String)] {
    static CORPUS: OnceLock<Vec<(bool, String)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        suite()
            .iter()
            .take(16)
            .flat_map(|p| {
                [
                    (true, p.verilog.dut.clone()),
                    (true, p.verilog.tb.clone()),
                    (false, p.vhdl.dut.clone()),
                    (false, p.vhdl.tb.clone()),
                ]
            })
            .collect()
    })
}

/// Runs the full frontend stack on one text: analyze (lex + parse),
/// top-module inference, then elaboration of whatever top was found.
/// The property is simply that this returns.
fn exercise_frontends(text: &str) {
    let mut sources = SourceMap::new();
    sources.add_file("fuzz.v", text.to_string());
    let (unit, _) = aivril_verilog::analyze(&sources);
    if let Some(top) = aivril_verilog::find_top(&unit) {
        let _ = aivril_verilog::compile(&sources, &top);
    }
    let mut sources = SourceMap::new();
    sources.add_file("fuzz.vhd", text.to_string());
    let (file, _) = aivril_vhdl::analyze(&sources);
    if let Some(top) = aivril_vhdl::find_top(&file) {
        let _ = aivril_vhdl::compile(&sources, &top);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Raw byte soup (lossily decoded) never panics either frontend.
    #[test]
    fn frontends_survive_byte_soup(bytes in proptest::collection::vec(0u8..=255, 0..400)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        exercise_frontends(&text);
    }

    /// Arbitrary unicode never panics either frontend (exercises
    /// multi-byte characters inside identifiers, strings and comments).
    #[test]
    fn frontends_survive_unicode(
        codepoints in proptest::collection::vec(0u32..0x11_0000, 0..200),
    ) {
        let text: String = codepoints.iter().filter_map(|&c| char::from_u32(c)).collect();
        exercise_frontends(&text);
    }

    /// Splicing a random window of one real design into another —
    /// plausible LLM-mangled output — never panics.
    #[test]
    fn frontends_survive_spliced_designs(
        a in 0usize..64,
        b in 0usize..64,
        cut in 0usize..4000,
        len in 0usize..400,
    ) {
        let corpus = corpus();
        let (_, src) = &corpus[a % corpus.len()];
        let (_, donor) = &corpus[b % corpus.len()];
        let start = cut % donor.len().max(1);
        let end = (start + len).min(donor.len());
        // Byte-offset splices can land mid-char only in ASCII sources
        // (the corpus is ASCII), so direct slicing is safe here.
        let mut text = src.clone();
        let at = cut % text.len().max(1);
        text.insert_str(at, &donor[start..end]);
        exercise_frontends(&text);
    }

    /// Token reordering: lex a real Verilog design, swap token pairs,
    /// and re-parse + elaborate. The parser must absorb any ordering.
    #[test]
    fn verilog_parser_survives_token_reordering(
        idx in 0usize..32,
        swaps in proptest::collection::vec((0usize..5000, 0usize..5000), 1..24),
    ) {
        let corpus = corpus();
        let (_, src) = corpus
            .iter()
            .filter(|(verilog, _)| *verilog)
            .nth(idx % 32)
            .expect("corpus has 32 verilog sources");
        let mut sources = SourceMap::new();
        let file = sources.add_file("reorder.v", src.clone());
        let mut diags = Diagnostics::new();
        let mut tokens = aivril_verilog::lex(file, sources.file(file).text(), &mut diags);
        for &(i, j) in &swaps {
            if !tokens.is_empty() {
                let (i, j) = (i % tokens.len(), j % tokens.len());
                tokens.swap(i, j);
            }
        }
        let unit = aivril_verilog::parse(tokens, &mut diags);
        if let Some(top) = aivril_verilog::find_top(&unit) {
            let _ = aivril_verilog::elaborate(&unit, &top, &mut diags);
        }
    }

    /// Same property for the VHDL frontend.
    #[test]
    fn vhdl_parser_survives_token_reordering(
        idx in 0usize..32,
        swaps in proptest::collection::vec((0usize..5000, 0usize..5000), 1..24),
    ) {
        let corpus = corpus();
        let (_, src) = corpus
            .iter()
            .filter(|(verilog, _)| !*verilog)
            .nth(idx % 32)
            .expect("corpus has 32 vhdl sources");
        let mut sources = SourceMap::new();
        let file = sources.add_file("reorder.vhd", src.clone());
        let mut diags = Diagnostics::new();
        let mut tokens = aivril_vhdl::lex(file, sources.file(file).text(), &mut diags);
        for &(i, j) in &swaps {
            if !tokens.is_empty() {
                let (i, j) = (i % tokens.len(), j % tokens.len());
                tokens.swap(i, j);
            }
        }
        let file = aivril_vhdl::parse(tokens, &mut diags);
        if let Some(top) = aivril_vhdl::find_top(&file) {
            let _ = aivril_vhdl::elaborate(&file, &top, &mut diags);
        }
    }
}

// ------------------------------------------------------- nesting limits

use aivril_eda::{HdlFile, ToolSuite, XsimToolSuite};
use aivril_hdl::diag::codes::NESTING_LIMIT;

/// A deep shape: builds a design whose nesting grows with `n`.
type Shape = (&'static str, fn(usize) -> String);

fn verilog_expr_dut(expr: &str) -> String {
    format!("module deep(input a, output reg y);\n  always @* begin\n    y = {expr};\n  end\nendmodule\n")
}

fn verilog_stmt_dut(stmt: &str) -> String {
    format!(
        "module deep(input a, output reg y);\n  always @* begin\n    {stmt}\n  end\nendmodule\n"
    )
}

const VERILOG_TB: &str = "module tb;\n  reg a; wire y;\n  deep dut(.a(a), .y(y));\n  \
    initial begin\n    a = 1; #1;\n    $display(\"All tests passed successfully!\");\n    $finish;\n  end\nendmodule\n";

const VERILOG_SHAPES: &[Shape] = &[
    ("sum chain", |n| verilog_expr_dut(&vec!["a"; n].join(" + "))),
    ("parentheses", |n| {
        verilog_expr_dut(&format!("{}a{}", "(".repeat(n), ")".repeat(n)))
    }),
    ("unary operators", |n| {
        verilog_expr_dut(&format!("{}a", "!".repeat(n)))
    }),
    ("precedence climb", |n| {
        let unit = "a || a && a | a ^ a & a == a < a << a + a * (";
        verilog_expr_dut(&format!("{}a{}", unit.repeat(n), ")".repeat(n)))
    }),
    ("ternary chain", |n| {
        verilog_expr_dut(&format!("{}a", "a ? a : ".repeat(n)))
    }),
    ("select chain", |n| {
        verilog_expr_dut(&format!("a{}", "[0]".repeat(n)))
    }),
    ("concatenation", |n| {
        verilog_expr_dut(&format!("{}a{}", "{".repeat(n), "}".repeat(n)))
    }),
    ("nested if", |n| {
        verilog_stmt_dut(&format!("{}y = 1;", "if (a) ".repeat(n)))
    }),
    ("nested begin", |n| {
        verilog_stmt_dut(&format!("{}y = 1;{}", "begin ".repeat(n), " end".repeat(n)))
    }),
    ("else-if chain", |n| {
        verilog_stmt_dut(&format!("{}y = 0;", "if (a) y = 1; else ".repeat(n)))
    }),
    ("target concatenation", |n| {
        verilog_stmt_dut(&format!("{}y{} = a;", "{".repeat(n), "}".repeat(n)))
    }),
];

fn vhdl_dut(decls: &str, body: &str) -> String {
    format!(
        "library ieee;\nuse ieee.std_logic_1164.all;\n\nentity deep is\n  port (a : in std_logic; y : out std_logic);\nend entity;\n\n\
         architecture rtl of deep is\n{decls}begin\n{body}end architecture;\n"
    )
}

fn vhdl_process_dut(stmt: &str) -> String {
    vhdl_dut(
        "  signal n : integer := 0;\n",
        &format!("  process (a)\n  begin\n    {stmt}\n  end process;\n"),
    )
}

const VHDL_TB: &str = "library ieee;\nuse ieee.std_logic_1164.all;\n\nentity tb is\nend entity;\n\n\
    architecture sim of tb is\n  signal a : std_logic;\n  signal y : std_logic;\nbegin\n  \
    dut: entity work.deep port map (a => a, y => y);\n  stim: process\n  begin\n    a <= '1';\n    \
    wait for 1 ns;\n    report \"All tests passed successfully!\" severity note;\n    wait;\n  end process;\nend architecture;\n";

const VHDL_SHAPES: &[Shape] = &[
    ("and chain", |n| {
        vhdl_process_dut(&format!("y <= {};", vec!["a"; n].join(" and ")))
    }),
    ("sum chain", |n| {
        vhdl_process_dut(&format!("n <= {};", vec!["1"; n].join(" + ")))
    }),
    ("product chain", |n| {
        vhdl_process_dut(&format!("n <= {};", vec!["1"; n].join(" * ")))
    }),
    ("parentheses", |n| {
        vhdl_process_dut(&format!("y <= {}a{};", "(".repeat(n), ")".repeat(n)))
    }),
    ("not operators", |n| {
        vhdl_process_dut(&format!("y <= {}a;", "not ".repeat(n)))
    }),
    ("nested if", |n| {
        vhdl_process_dut(&format!(
            "{}y <= '1';{}",
            "if a = '1' then ".repeat(n),
            " end if;".repeat(n)
        ))
    }),
    ("when-else chain", |n| {
        vhdl_dut(
            "",
            &format!("  y <= {}a;\n", "a when a = '1' else ".repeat(n)),
        )
    }),
];

/// Whether `files` analyze without hitting the nesting limit.
fn within_limit(tools: &XsimToolSuite, files: &[HdlFile]) -> bool {
    let report = tools.analyze(files);
    !report.messages.iter().any(|m| m.code == NESTING_LIMIT)
}

/// The largest `n` whose design stays within the nesting limit.
fn deepest_accepted(tools: &XsimToolSuite, files: impl Fn(usize) -> Vec<HdlFile>) -> usize {
    let (mut lo, mut hi) = (1, 4096);
    assert!(within_limit(tools, &files(lo)));
    assert!(!within_limit(tools, &files(hi)));
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if within_limit(tools, &files(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The deepest input of every shape that the parsers accept parses,
/// elaborates, lowers, simulates and drops on a 2 MiB thread (the
/// default for harness and serve workers), and one level more is
/// rejected with the nesting diagnostic. This is what sizes
/// `MAX_NESTING`.
#[test]
fn deepest_accepted_inputs_survive_the_pipeline_on_a_2mib_thread() {
    let run = || {
        let tools = XsimToolSuite::new();
        let shapes = VERILOG_SHAPES
            .iter()
            .map(|&(name, dut)| (name, dut, "deep.v", "tb.v", VERILOG_TB))
            .chain(
                VHDL_SHAPES
                    .iter()
                    .map(|&(name, dut)| (name, dut, "deep.vhd", "tb.vhd", VHDL_TB)),
            );
        for (name, dut, dut_name, tb_name, tb) in shapes {
            let files = |n| vec![HdlFile::new(dut_name, dut(n)), HdlFile::new(tb_name, tb)];
            let n = deepest_accepted(&tools, files);
            // A select chain of a scalar fails elaboration; what
            // matters is that every stage returns.
            let report = tools.simulate(&files(n), Some("tb"));
            assert!(!report.log.contains(NESTING_LIMIT), "{}", report.log);
            let report = tools.compile(&files(n + 1));
            assert!(!report.success, "{dut_name} {name} at {}", n + 1);
            assert!(report.log.contains(NESTING_LIMIT), "{}", report.log);
        }
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(run)
        .expect("spawn")
        .join()
        .expect("no shape may overflow the stack");
}

/// Every shape at ten times the limit, through the `aivril` binary:
/// a clean exit code 1 and the nesting diagnostic, never a stack
/// overflow abort.
#[test]
fn ten_times_the_limit_is_a_diagnostic_not_an_abort() {
    let dir = std::env::temp_dir().join(format!("aivril-nesting-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let shapes = VERILOG_SHAPES
        .iter()
        .map(|&(name, dut)| {
            (
                name,
                dut,
                "deep.v",
                "tb.v",
                VERILOG_TB,
                aivril_verilog::MAX_NESTING,
            )
        })
        .chain(VHDL_SHAPES.iter().map(|&(name, dut)| {
            (
                name,
                dut,
                "deep.vhd",
                "tb.vhd",
                VHDL_TB,
                aivril_vhdl::MAX_NESTING,
            )
        }));
    for (name, dut, dut_name, tb_name, tb, limit) in shapes {
        let (dut_path, tb_path) = (dir.join(dut_name), dir.join(tb_name));
        std::fs::write(&dut_path, dut(10 * limit as usize)).expect("write dut");
        std::fs::write(&tb_path, tb).expect("write tb");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_aivril"))
            .arg("compile")
            .args([&dut_path, &tb_path])
            .output()
            .expect("run aivril");
        let log = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{dut_name} {name}: {log}");
        let diagnostic =
            format!("ERROR: [{NESTING_LIMIT}] nesting exceeds the limit of {limit} levels");
        assert!(log.contains(&diagnostic), "{dut_name} {name}: {log}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
