//! Noise-free allocation gate for the compile path.
//!
//! A thread-local counting allocator measures how many heap
//! allocations each layer of the compile path performs over one pass of
//! all 156 golden pairs (DUT + testbench, top `tb`) in both languages:
//! lex+parse (`analyze`), elaboration and bytecode lowering
//! (`Simulator::new`). Allocation counts are a pure function of the
//! code and its input, so unlike nanosecond timings they can be gated
//! tightly: a layer that starts allocating per node again fails here.
//!
//! The same binary pins the values of every Verilog number literal the
//! suite and the fuzz corpus contain, so the allocation-free literal
//! parser is held to the exact results of the one it replaced.

use aivril_hdl::diag::Diagnostics;
use aivril_hdl::source::SourceMap;
use aivril_obs::codec::fnv64;
use aivril_sim::{SimConfig, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made by the current thread; frees are free.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations per layer over one pass of the suite in one language.
#[derive(Debug, Default)]
struct LayerAllocs {
    parse: u64,
    elab: u64,
    lower: u64,
}

fn suite_allocs(verilog: bool) -> LayerAllocs {
    let suite = aivril_verilogeval::suite();
    assert_eq!(suite.len(), 156);
    let mut total = LayerAllocs::default();
    for p in &suite {
        let pair = p.golden(verilog);
        let ext = if verilog { "v" } else { "vhd" };
        let mut sources = SourceMap::new();
        sources.add_file(format!("dut.{ext}"), pair.dut.clone());
        sources.add_file(format!("tb.{ext}"), pair.tb.clone());
        let mut diags = Diagnostics::new();
        let design = if verilog {
            let ((unit, parse_diags), parse) = counted(|| aivril_verilog::analyze(&sources));
            diags.extend(parse_diags);
            let (design, elab) = counted(|| aivril_verilog::elaborate(&unit, "tb", &mut diags));
            total.parse += parse;
            total.elab += elab;
            design
        } else {
            let ((file, parse_diags), parse) = counted(|| aivril_vhdl::analyze(&sources));
            diags.extend(parse_diags);
            let (design, elab) = counted(|| aivril_vhdl::elaborate(&file, "tb", &mut diags));
            total.parse += parse;
            total.elab += elab;
            design
        };
        assert!(!diags.has_errors(), "{}: {:?}", p.name, diags.all());
        let design = design.unwrap_or_else(|| panic!("{} did not elaborate", p.name));
        let (sim, lower) = counted(|| Simulator::new(&design, SimConfig::default()));
        total.lower += lower;
        drop(sim);
    }
    total
}

/// The ceilings are the exact counts of the current code: a change that
/// lowers a count should lower its ceiling with it.
fn assert_within(language: &str, got: &LayerAllocs, ceiling: &LayerAllocs) {
    assert!(
        got.parse <= ceiling.parse && got.elab <= ceiling.elab && got.lower <= ceiling.lower,
        "{language} compile path allocates more than its ceiling: got {got:?}, ceiling {ceiling:?}"
    );
}

#[test]
fn verilog_compile_path_allocations_stay_under_ceiling() {
    let got = suite_allocs(true);
    // Before the compact-AST work: 416,095 / 433,514 / 207,253.
    assert_within(
        "verilog",
        &got,
        &LayerAllocs {
            parse: 191_546,
            elab: 136_573,
            lower: 4_503,
        },
    );
}

#[test]
fn vhdl_compile_path_allocations_stay_under_ceiling() {
    let got = suite_allocs(false);
    // Before the compact-AST work: 198,301 / 154,692 / 245,342.
    assert_within(
        "vhdl",
        &got,
        &LayerAllocs {
            parse: 137_826,
            elab: 154_692,
            lower: 82_156,
        },
    );
}

/// Literal spellings the suite does not contain: underscores in every
/// position, padding and truncation at word boundaries, signed and
/// unsized forms, and malformed text.
const LITERAL_EDGES: &[&str] = &[
    "1_000",
    "8'_hF_F",
    "_8'hFF",
    "'b_",
    "12'hx",
    "12'hz3",
    "7'o?",
    "65'h1_0000_0000_0000_0000",
    "64'hFFFF_FFFF_FFFF_FFFF",
    "130'bx",
    "3'b1_0101",
    "8'sd255",
    "8'Sb1",
    "8'D9",
    "8'dz",
    "8'd1x",
    "4096'h1",
    "4097'h1",
    "+5",
    "8'h+F",
    "'d18446744073709551616",
    "8'h\u{e9}",
    "8'\u{e9}1",
    "",
    "'",
];

#[test]
fn literal_values_are_pinned() {
    let suite = aivril_verilogeval::suite();
    let mut texts: Vec<&str> = suite
        .iter()
        .flat_map(|p| [p.verilog.dut.as_str(), p.verilog.tb.as_str()])
        .collect();
    // The fuzz corpus: the first 16 problems in both languages, each
    // fed to the Verilog lexer as `frontend_fuzz` does.
    texts.extend(suite.iter().take(16).flat_map(|p| {
        [
            p.verilog.dut.as_str(),
            p.verilog.tb.as_str(),
            p.vhdl.dut.as_str(),
            p.vhdl.tb.as_str(),
        ]
    }));
    let mut buf = Vec::new();
    let mut count = 0usize;
    let mut push = |text: &str| {
        buf.extend_from_slice(&(text.len() as u64).to_le_bytes());
        buf.extend_from_slice(text.as_bytes());
        match aivril_verilog::try_parse_literal(text) {
            Some(v) => {
                buf.extend_from_slice(&v.width().to_le_bytes());
                buf.extend_from_slice(v.to_binary_string().as_bytes());
            }
            None => buf.push(0xff),
        }
        count += 1;
    };
    for text in texts {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.v", text.to_string());
        let mut diags = Diagnostics::new();
        for tok in aivril_verilog::lex(file, sources.file(file).text(), &mut diags) {
            if tok.kind == aivril_verilog::token::TokenKind::Number {
                push(&tok.text);
            }
        }
    }
    for text in LITERAL_EDGES {
        push(text);
    }
    let digest = fnv64(&buf);
    assert_eq!(
        (digest, count),
        (0x3c45_318e_78c7_867a, 114_071),
        "got {digest:#018x} over {count} literals"
    );
}
