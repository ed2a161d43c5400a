//! Observability suite: the run journal and the metrics registry must
//! be *deterministic artifacts* — byte-identical across reruns and
//! across thread counts — and the instrumentation must vanish when no
//! recorder is installed.
//!
//! Metric comparison is `f64::to_bits` equality (via the registry's
//! `Eq` snapshot), never an epsilon: the contract under test is that
//! worker count changes *nothing*, including summation order.

use aivril_bench::{run_seed, Flow, Harness, HarnessConfig, Telemetry};
use aivril_core::{Aivril2, Aivril2Config, TaskInput};
use aivril_eda::{CompileReport, HdlFile, SimReport, ToolSuite, XsimToolSuite};
use aivril_llm::{profiles, SimLlm};
use aivril_obs::{chrome_trace, render_journal, MetricValue, Recorder, JOURNAL_VERSION};

fn harness(threads: usize, recorder: Recorder) -> Harness {
    Harness::new(HarnessConfig {
        samples: 2,
        // 10 tasks matches quicklook and is the smallest prefix of the
        // suite that exercises every sim-kernel histogram (NBA flushes
        // included).
        task_limit: 10,
        threads,
        ..HarnessConfig::default()
    })
    .with_recorder(recorder)
}

/// Runs a quicklook-sized evaluation (one model, Verilog, AIVRIL2)
/// under a fresh recorder and returns it.
fn traced_run(threads: usize) -> Recorder {
    let rec = Recorder::new();
    let profile = profiles::claude35_sonnet();
    let h = harness(threads, rec.clone());
    let _ = h.evaluate_with_stats(&profile, true, Flow::Aivril2);
    rec
}

#[test]
fn journal_is_identical_across_thread_counts() {
    let serial = render_journal(&traced_run(1));
    let four = render_journal(&traced_run(4));
    assert_eq!(
        serial, four,
        "journal bytes must not depend on AIVRIL_THREADS"
    );
}

#[test]
fn journal_is_identical_across_reruns() {
    let first = render_journal(&traced_run(2));
    let second = render_journal(&traced_run(2));
    assert_eq!(first, second, "fixed-seed journal must be reproducible");
}

#[test]
fn journal_golden_shape() {
    // Golden snapshot of the journal *shape* for one fixed-seed run:
    // schema header, run grouping, and the stage spans the flow emits.
    let journal = render_journal(&traced_run(1));
    let mut lines = journal.lines();
    let header = lines.next().expect("journal has a header line");
    assert!(
        header.starts_with(&format!(
            "{{\"schema\":\"aivril.journal\",\"version\":{JOURNAL_VERSION},\"runs\":20,"
        )),
        "unexpected header: {header}"
    );
    let body: Vec<&str> = lines.collect();
    assert!(!body.is_empty(), "journal has events");
    for line in &body {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
    }
    // Every pipeline stage appears as a span somewhere in the journal.
    for span in [
        "stage.tb_generation",
        "stage.tb_syntax_loop",
        "stage.rtl_generation",
        "stage.rtl_syntax_loop",
        "stage.functional_loop",
        "llm.chat",
        "eda.compile",
        "eda.simulate",
    ] {
        let needle = format!("\"span\":\"{span}\"");
        assert!(
            body.iter().any(|l| l.contains(&needle)),
            "journal missing span {span}"
        );
    }
    // Runs are grouped in grid order: the (problem, sample) pairs of
    // the event stream must be non-decreasing.
    let mut coords = Vec::new();
    for line in &body {
        if let Some(idx) = line.find("\"problem\":") {
            let rest = &line[idx + 10..];
            let p: u32 = rest[..rest.find(',').unwrap()].parse().unwrap();
            let sidx = line.find("\"sample\":").unwrap();
            let rest = &line[sidx + 9..];
            let s: u32 = rest[..rest.find('}').unwrap()].parse().unwrap();
            coords.push((p, s));
        }
    }
    assert!(!coords.is_empty(), "journal events carry run coordinates");
    assert!(
        coords.windows(2).all(|w| w[0] <= w[1]),
        "journal runs must be sorted by (problem, sample)"
    );
}

#[test]
fn metrics_are_bit_identical_across_thread_counts() {
    let serial = traced_run(1);
    let two = traced_run(2);
    let eight = traced_run(8);
    let base = serial.metrics();
    assert!(!base.is_empty(), "traced run must produce metrics");
    // MetricValue's Eq is f64::to_bits-based (histogram bounds are
    // stored as bit patterns; gauge Eq goes through to_bits), so
    // snapshot equality *is* bitwise equality.
    assert_eq!(base.snapshot(), two.metrics().snapshot(), "1 vs 2 threads");
    assert_eq!(
        base.snapshot(),
        eight.metrics().snapshot(),
        "1 vs 8 threads"
    );
    assert_eq!(
        base.render(),
        two.metrics().render(),
        "rendered dump 1 vs 2"
    );
}

#[test]
fn sim_kernel_histograms_are_recorded() {
    // VHDL: its signal-assignment semantics exercise the NBA queue,
    // so all three kernel histograms fill (Verilog designs in the
    // 10-task prefix use pure blocking assignments).
    let rec = Recorder::new();
    let h = harness(2, rec.clone());
    let _ = h.evaluate_with_stats(&profiles::claude35_sonnet(), false, Flow::Aivril2);
    let metrics = rec.metrics();
    for name in [
        "sim_delta_cycles_per_step",
        "sim_event_queue_depth",
        "sim_nba_flush_size",
    ] {
        let value = metrics
            .get(name, &[])
            .unwrap_or_else(|| panic!("metrics dump missing {name}"));
        match value {
            MetricValue::Histogram(h) => {
                assert!(h.count() > 0, "{name} must observe at least one value")
            }
            other => panic!("{name} should be a histogram, got {other:?}"),
        }
    }
    match metrics.get("sim_runs_total", &[]) {
        Some(MetricValue::Counter(n)) => assert!(*n > 0, "at least one simulated task"),
        other => panic!("sim_runs_total should be a counter, got {other:?}"),
    }
}

#[test]
fn chrome_trace_is_valid_and_deterministic() {
    let first = chrome_trace(&traced_run(1));
    let second = chrome_trace(&traced_run(4));
    assert_eq!(first, second, "chrome trace must not depend on threads");
    assert!(first.starts_with('[') && first.trim_end().ends_with(']'));
    assert!(first.contains("\"ph\":\"X\""), "has complete events");
    assert!(first.contains("\"ph\":\"M\""), "has thread_name metadata");
    assert!(first.contains("\"cat\":\"aivril\""));
}

#[test]
fn disabled_recorder_records_nothing() {
    let rec = Recorder::disabled();
    let profile = profiles::claude35_sonnet();
    let h = harness(2, rec.clone());
    let _ = h.evaluate_with_stats(&profile, true, Flow::Aivril2);
    assert!(!rec.is_enabled());
    assert!(rec.metrics().is_empty(), "disabled recorder stays empty");
    assert!(rec.runs().is_empty(), "disabled recorder has no journal");
}

#[test]
fn disabled_recorder_does_not_change_results() {
    // Instrumentation must be observation-only: outcomes with a live
    // recorder are bit-identical to outcomes without one.
    let profile = profiles::claude35_sonnet();
    let plain = harness(2, Recorder::disabled());
    let traced = harness(2, Recorder::new());
    let (a, _) = plain.evaluate_with_stats(&profile, true, Flow::Aivril2);
    let (b, _) = traced.evaluate_with_stats(&profile, true, Flow::Aivril2);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.task, y.task);
        for (s, t) in x.samples.iter().zip(&y.samples) {
            assert_eq!(s.syntax, t.syntax);
            assert_eq!(s.functional, t.functional);
            assert_eq!(s.total_latency.to_bits(), t.total_latency.to_bits());
        }
    }
}

#[test]
fn telemetry_from_vars_switches() {
    let off = Telemetry::from_vars(|_| None);
    assert!(!off.is_enabled(), "no env vars => disabled recorder");
    let on = Telemetry::from_vars(|k| (k == "AIVRIL_METRICS").then(|| "1".to_string()));
    assert!(on.is_enabled(), "AIVRIL_METRICS=1 enables the recorder");
    let zero = Telemetry::from_vars(|k| (k == "AIVRIL_METRICS").then(|| "0".to_string()));
    assert!(!zero.is_enabled(), "AIVRIL_METRICS=0 keeps it off");
    let trace =
        Telemetry::from_vars(|k| (k == "AIVRIL_TRACE_JSON").then(|| "/tmp/x.jsonl".to_string()));
    assert!(trace.is_enabled(), "trace path enables the recorder");
}

/// Forwards the three required tool calls and keeps the trait's
/// snapshot defaults, as a timing or capturing wrapper does: every
/// simulate compiles afresh.
struct DefaultsOnly<'a>(&'a XsimToolSuite);

impl ToolSuite for DefaultsOnly<'_> {
    fn analyze(&self, files: &[HdlFile]) -> CompileReport {
        self.0.analyze(files)
    }

    fn compile(&self, files: &[HdlFile]) -> CompileReport {
        self.0.compile(files)
    }

    fn simulate(&self, files: &[HdlFile], top: Option<&str>) -> SimReport {
        self.0.simulate(files, top)
    }
}

/// Runs an AIVRIL2 grid (3 models x 2 languages x 6 tasks x 2 samples)
/// straight through the flow, on `XsimToolSuite` itself or through the
/// defaults-only wrapper, and returns the journal, the metrics dump and
/// every run's outcome.
fn aivril2_grid(through_defaults: bool) -> (String, String, Vec<String>) {
    let rec = Recorder::new();
    let tools = XsimToolSuite::new().with_recorder(rec.clone());
    let wrapper = DefaultsOnly(&tools);
    let suite: &dyn ToolSuite = if through_defaults { &wrapper } else { &tools };
    let h = harness(1, Recorder::default());
    let library = h.library();
    let mut outcomes = Vec::new();
    for profile in profiles::all() {
        for verilog in [true, false] {
            for (index, problem) in h.problems().iter().take(6).enumerate() {
                for sample in 0..2 {
                    let task = TaskInput {
                        name: problem.name.clone(),
                        module_name: problem.module_name.clone(),
                        spec: problem.spec.clone(),
                        verilog,
                        seed: run_seed(index, sample),
                    };
                    let mut model = SimLlm::new(profile.clone(), library.clone());
                    let result = Aivril2::new(suite, Aivril2Config::default())
                        .with_recorder(rec.clone())
                        .run(&mut model, &task);
                    outcomes.push(format!(
                        "{:?} {} {} {:?}",
                        result.final_rtl, result.syntax_pass, result.functional_pass, result.trace
                    ));
                }
            }
        }
    }
    (render_journal(&rec), rec.metrics().render(), outcomes)
}

/// Reusing the compiled design in the functional loop changes no
/// journal line, metric or outcome: a grid driven through
/// `XsimToolSuite`'s snapshots equals one driven through a wrapper that
/// only has the trait defaults (perfbench's traced pass is one).
#[test]
fn snapshot_reuse_matches_the_trait_defaults() {
    let (journal, metrics, outcomes) = aivril2_grid(false);
    let (default_journal, default_metrics, default_outcomes) = aivril2_grid(true);
    assert!(journal.lines().count() > 100, "the grid must be traced");
    assert_eq!(journal, default_journal);
    assert_eq!(metrics, default_metrics);
    assert_eq!(outcomes, default_outcomes);
}
