//! Criterion benchmarks for the substrate and the pipeline.
//!
//! These measure the *reproduction's* own performance (compiler and
//! simulator throughput, end-to-end pipeline cost per benchmark task) —
//! the numbers that determine how long the table harnesses take. The
//! paper-shaped experiments themselves live in `src/bin/{table1,table2,
//! figure3,ablation}`.

use aivril_bench::{build_library, Harness, HarnessConfig};
use aivril_core::{Aivril2, Aivril2Config, TaskInput};
use aivril_eda::{HdlFile, ToolSuite, XsimToolSuite};
use aivril_hdl::diag::Diagnostics;
use aivril_hdl::source::SourceMap;
use aivril_llm::{profiles, SimLlm};
use aivril_sim::{SimConfig, Simulator};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn harness() -> Harness {
    Harness::new(HarnessConfig {
        samples: 1,
        task_limit: 156,
        ..HarnessConfig::default()
    })
}

/// Verilog frontend throughput: lex+parse+elaborate a mid-size golden
/// DUT + testbench pair.
fn bench_compile_verilog(c: &mut Criterion) {
    let h = harness();
    let p = h
        .problems()
        .iter()
        .find(|p| p.name.contains("alu4op_w8"))
        .expect("alu problem present");
    let tools = XsimToolSuite::new();
    let files = [
        HdlFile::new("dut.v", p.verilog.dut.clone()),
        HdlFile::new("tb.v", p.verilog.tb.clone()),
    ];
    c.bench_function("compile_verilog_alu8", |b| {
        b.iter(|| black_box(tools.compile(black_box(&files))))
    });
}

/// VHDL frontend throughput on the same design.
fn bench_compile_vhdl(c: &mut Criterion) {
    let h = harness();
    let p = h
        .problems()
        .iter()
        .find(|p| p.name.contains("alu4op_w8"))
        .expect("alu problem present");
    let tools = XsimToolSuite::new();
    let files = [
        HdlFile::new("dut.vhd", p.vhdl.dut.clone()),
        HdlFile::new("tb.vhd", p.vhdl.tb.clone()),
    ];
    c.bench_function("compile_vhdl_alu8", |b| {
        b.iter(|| black_box(tools.compile(black_box(&files))))
    });
}

/// Frontend throughput without elaboration: lex+parse every suite DUT
/// and testbench (312 files per language) in one `analyze` call.
fn bench_lex_parse_suite(c: &mut Criterion) {
    let h = harness();
    let mut verilog = SourceMap::new();
    let mut vhdl = SourceMap::new();
    for p in h.problems() {
        verilog.add_file(format!("{}.v", p.name), p.verilog.dut.clone());
        verilog.add_file(format!("{}_tb.v", p.name), p.verilog.tb.clone());
        vhdl.add_file(format!("{}.vhd", p.name), p.vhdl.dut.clone());
        vhdl.add_file(format!("{}_tb.vhd", p.name), p.vhdl.tb.clone());
    }
    c.bench_function("lex_parse_suite_verilog", |b| {
        b.iter(|| black_box(aivril_verilog::analyze(black_box(&verilog))))
    });
    c.bench_function("lex_parse_suite_vhdl", |b| {
        b.iter(|| black_box(aivril_vhdl::analyze(black_box(&vhdl))))
    });
}

/// One golden pair (DUT + testbench) per problem, as the EDA layer
/// compiles it.
fn suite_pairs(h: &Harness, verilog: bool) -> Vec<SourceMap> {
    let ext = if verilog { "v" } else { "vhd" };
    h.problems()
        .iter()
        .map(|p| {
            let pair = p.golden(verilog);
            let mut sources = SourceMap::new();
            sources.add_file(format!("dut.{ext}"), pair.dut.clone());
            sources.add_file(format!("tb.{ext}"), pair.tb.clone());
            sources
        })
        .collect()
}

/// Elaboration alone: every suite pair is parsed once up front, then
/// each iteration elaborates all 156 testbench tops.
fn bench_elab_suite(c: &mut Criterion) {
    let h = harness();
    let verilog: Vec<_> = suite_pairs(&h, true)
        .iter()
        .map(|s| aivril_verilog::analyze(s).0)
        .collect();
    let vhdl: Vec<_> = suite_pairs(&h, false)
        .iter()
        .map(|s| aivril_vhdl::analyze(s).0)
        .collect();
    c.bench_function("elab_suite_verilog", |b| {
        b.iter(|| {
            for unit in &verilog {
                let mut diags = Diagnostics::new();
                black_box(aivril_verilog::elaborate(black_box(unit), "tb", &mut diags));
            }
        })
    });
    c.bench_function("elab_suite_vhdl", |b| {
        b.iter(|| {
            for file in &vhdl {
                let mut diags = Diagnostics::new();
                black_box(aivril_vhdl::elaborate(black_box(file), "tb", &mut diags));
            }
        })
    });
}

/// Bytecode lowering alone: `Simulator::new` over the elaborated
/// testbench of every suite pair in both languages (312 designs).
fn bench_lower_suite(c: &mut Criterion) {
    let h = harness();
    let mut designs = Vec::new();
    for sources in suite_pairs(&h, true) {
        designs.push(aivril_verilog::compile(&sources, "tb").expect("golden pair compiles"));
    }
    for sources in suite_pairs(&h, false) {
        designs.push(aivril_vhdl::compile(&sources, "tb").expect("golden pair compiles"));
    }
    c.bench_function("lower_suite", |b| {
        b.iter(|| {
            for design in &designs {
                black_box(Simulator::new(black_box(design), SimConfig::default()));
            }
        })
    });
}

/// Event-kernel throughput: full simulation of an exhaustive
/// combinational testbench (64 vectors) and a sequential one.
fn bench_simulate(c: &mut Criterion) {
    let h = harness();
    let tools = XsimToolSuite::new();
    for name in ["adder_cout_w8", "count_mod10_tc"] {
        let p = h
            .problems()
            .iter()
            .find(|p| p.name.contains(name))
            .expect("problem present");
        let files = [
            HdlFile::new("dut.v", p.verilog.dut.clone()),
            HdlFile::new("tb.v", p.verilog.tb.clone()),
        ];
        c.bench_function(&format!("simulate_{name}"), |b| {
            b.iter(|| black_box(tools.simulate(black_box(&files), Some("tb"))))
        });
    }
}

/// End-to-end AIVRIL2 pipeline cost for one task sample (Claude
/// profile): two generations, the loops, and all tool runs.
fn bench_pipeline(c: &mut Criterion) {
    let h = harness();
    let p = h
        .problems()
        .iter()
        .find(|p| p.name.contains("count_up_w4"))
        .expect("counter present");
    let lib = build_library(h.problems());
    let tools = XsimToolSuite::new();
    let pipeline = Aivril2::new(&tools, Aivril2Config::default());
    c.bench_function("aivril2_pipeline_counter", |b| {
        let mut model = SimLlm::new(profiles::claude35_sonnet(), lib.clone());
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let task = TaskInput {
                name: p.name.clone(),
                module_name: p.module_name.clone(),
                spec: p.spec.clone(),
                verilog: true,
                seed,
            };
            black_box(pipeline.run(&mut model, &task))
        })
    });
}

/// Suite generation cost (all 156 problems with their testbenches).
fn bench_suite_generation(c: &mut Criterion) {
    c.bench_function("generate_suite_156", |b| {
        b.iter(|| black_box(aivril_verilogeval::suite()))
    });
}

criterion_group!(
    benches,
    bench_compile_verilog,
    bench_compile_vhdl,
    bench_lex_parse_suite,
    bench_elab_suite,
    bench_lower_suite,
    bench_simulate,
    bench_pipeline,
    bench_suite_generation
);
criterion_main!(benches);
