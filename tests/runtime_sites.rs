//! Verilog programs through the simulator, checking the runtime sites
//! that read values outside assignment right-hand sides: system-task
//! arguments (`$display`, `$error`, `$monitor`) and bit-select targets
//! `r[i] = ...`. Every design here must also run without a single
//! spilled evaluation (`eval_allocs == 0`), however wide its values.

use aivril_hdl::diag::Diagnostics;
use aivril_hdl::source::SourceMap;
use aivril_sim::{SimConfig, SimResult, Simulator};

/// Compiles `src` (top module `tb`), runs it, and returns the result,
/// its log lines as text, and the run's spilled-evaluation count.
fn run(src: &str) -> (SimResult, Vec<String>, u64) {
    let mut sources = SourceMap::new();
    sources.add_file("tb.v", src.to_string());
    let (unit, mut diags) = aivril_verilog::analyze(&sources);
    let mut elab_diags = Diagnostics::new();
    let design = aivril_verilog::elaborate(&unit, "tb", &mut elab_diags);
    diags.extend(elab_diags);
    assert!(!diags.has_errors(), "{:?}", diags.all());
    let design = design.expect("elaborates");
    let mut sim = Simulator::new(&design, SimConfig::default());
    let result = sim.run();
    let lines = result.lines.iter().map(|l| l.text.clone()).collect();
    (result, lines, sim.perf().eval_allocs)
}

#[test]
fn out_of_range_bit_select_writes_vanish_at_any_index_width() {
    // 33'h1_0000_0001 used to be truncated to 32 bits, writing bit 1.
    let (_, lines, allocs) = run("module tb;
  reg [7:0] r, q, c;
  reg a;
  initial begin
    r = 0; q = 0; c = 0; a = 0;
    r[33'h1_0000_0001] = 1'b1;
    q[33'h1_0000_0002] <= 1'b1;
    {a, c[33'h1_0000_0003]} = 2'b11;
    #1 $display(\"r=%b q=%b c=%b a=%b\", r, q, c, a);
  end
endmodule
");
    assert_eq!(lines, ["r=00000000 q=00000000 c=00000000 a=1"]);
    assert_eq!(allocs, 0);
}

#[test]
fn bit_select_targets_with_unknown_or_large_indices() {
    let (_, lines, allocs) = run("module tb;
  reg [7:0] r;
  reg [3:0] i;
  reg [63:0] big;
  initial begin
    r = 0; big = 64'hFFFF_FFFF_0000_0003;
    r[i] = 1'b1;
    r[8] = 1'b1;
    r[big] = 1'b1;
    i = 4'd5;
    r[i] = 1'b1;
    r[i - 4'd3] <= 1'b1;
    {r[7], r[i + 4'd1]} = 2'b10;
    #1 $display(\"%b\", r);
  end
endmodule
");
    // `i` is X at the first write and `big` is far out of range: both
    // writes vanish. The in-range writes land on bits 5, 2 and 7 (and
    // bit 6 receives the concat's low 0).
    assert_eq!(lines, ["10100100"]);
    assert_eq!(allocs, 0);
}

#[test]
fn display_and_error_render_wide_and_unknown_arguments() {
    let (result, lines, allocs) = run("module tb;
  reg [99:0] w;
  reg [7:0] u;
  initial begin
    w = 100'h1_0000_0000_0000_0000_0000;
    $display(\"w=%h d=%d u=%b ud=%d\", w, w, u, u);
    u = 8'b1010_x01z;
    $error(\"w=%h u=%b u=%h\", w, u, u);
    w = w - 1;
    $display(w, u);
  end
endmodule
");
    assert_eq!(
        lines,
        [
            "w=0000100000000000000000000 d=1208925819614629174706176 u=xxxxxxxx ud=x",
            "ERROR: w=0000100000000000000000000 u=1010x01z u=ax (at time 0)",
            "1208925819614629174706175 x",
        ]
    );
    assert_eq!(result.error_count, 1);
    assert_eq!(allocs, 0);
}

#[test]
fn monitor_prints_wide_values_only_on_change() {
    let (_, lines, allocs) = run("module tb;
  reg [79:0] w;
  initial begin
    w = 80'hAB_0000_0000_0000_0001;
    $monitor(\"t=%0t w=%h\", $time, w);
    #5 w = w + 1;
    #5 w = w;
    #5 w = 80'hx;
    #5 $finish;
  end
endmodule
");
    assert_eq!(
        lines,
        [
            "t=0 w=00ab0000000000000001",
            "t=5 w=00ab0000000000000002",
            "t=15 w=xxxxxxxxxxxxxxxxxxxx",
        ]
    );
    assert_eq!(allocs, 0);
}
