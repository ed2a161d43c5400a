//! The `table1` grid: 3 models × 2 languages × {baseline, AIVRIL2} ×
//! 156 problems at one sample, evaluated section by section through
//! `Harness::evaluate_with_stats` exactly as the `table1` binary does.

use crate::sys;
use aivril_bench::{
    results_json, EvalStats, Flow, Harness, HarnessConfig, ResultSection, RunRecord,
};
use aivril_eda::CacheStats;
use aivril_llm::{profiles, ModelProfile};
use aivril_metrics::EvalOutcome;
use aivril_sim::KernelPerf;
use std::path::Path;
use std::time::Instant;

/// Worker threads of every grid evaluation.
pub const THREADS: usize = 2;

/// Which harness configuration a grid pass uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    /// EDA cache off: the default way the paper tables are regenerated.
    Cold,
    /// In-memory EDA cache with incremental memos plus an empty
    /// checkpoint directory, as in `aivril-shard` children.
    Cached,
}

/// One `evaluate_with_stats` call of the grid.
#[derive(Debug, Clone)]
pub struct Section {
    pub profile: usize,
    pub verilog: bool,
    pub flow: Flow,
    /// The `table1` results-JSON label, e.g. `GPT-4o VHDL aivril2`.
    pub label: String,
}

/// The grid's sections in `table1` order.
#[must_use]
pub fn sections(profiles: &[ModelProfile]) -> Vec<Section> {
    let mut out = Vec::new();
    for (pi, profile) in profiles.iter().enumerate() {
        for verilog in [true, false] {
            let lang = if verilog { "Verilog" } else { "VHDL" };
            for (flow, name) in [(Flow::Baseline, "baseline"), (Flow::Aivril2, "aivril2")] {
                out.push(Section {
                    profile: pi,
                    verilog,
                    flow,
                    label: format!("{} {lang} {name}", profile.name),
                });
            }
        }
    }
    out
}

/// The harness configuration of `kind`.
#[must_use]
pub fn harness_config(kind: GridKind, checkpoint_dir: Option<&Path>) -> HarnessConfig {
    HarnessConfig {
        samples: 1,
        threads: THREADS,
        eda_cache: kind == GridKind::Cached,
        incremental: true,
        checkpoint_dir: checkpoint_dir.map(|d| d.to_string_lossy().into_owned()),
        ..HarnessConfig::default()
    }
}

/// FNV-64 of a section's canonical results JSON: the `table1 --json`
/// section with the fields `AIVRIL_CANONICAL` masks (wall clock,
/// thread count, cache and kernel diagnostics) zeroed.
#[must_use]
pub fn canonical_digest(label: &str, outcomes: Vec<EvalOutcome>, mut stats: EvalStats) -> String {
    stats.wall_seconds = 0.0;
    stats.threads = 0;
    stats.eda_cache = None;
    stats.kernel = KernelPerf::default();
    let json = results_json(&[ResultSection {
        label: label.to_string(),
        outcomes,
        stats,
    }]);
    crate::digest(&json)
}

/// The canonical digest of a section rebuilt from per-cell records in
/// problem order, accumulated the way `Harness::merge_shards` does.
#[must_use]
pub fn digest_from_records(label: &str, task_names: &[&str], records: &[&RunRecord]) -> String {
    let mut stats = EvalStats {
        runs: records.len(),
        threads: 0,
        wall_seconds: 0.0,
        modeled_seconds: 0.0,
        modeled_llm_seconds: 0.0,
        modeled_tool_seconds: 0.0,
        syntax_iters: 0,
        functional_iters: 0,
        eda_cache: None,
        resilience: aivril_core::ResilienceCounters::default(),
        crashed: 0,
        kernel: KernelPerf::default(),
    };
    let mut outcomes = Vec::with_capacity(records.len());
    for (task, record) in task_names.iter().zip(records) {
        stats.modeled_seconds += record.outcome.total_latency;
        stats.modeled_llm_seconds += record.llm_seconds;
        stats.modeled_tool_seconds += record.tool_seconds;
        stats.syntax_iters += u64::from(record.outcome.syntax_iters);
        stats.functional_iters += u64::from(record.outcome.functional_iters);
        stats.resilience.merge(&record.resilience);
        stats.crashed += u64::from(record.outcome.crashed);
        outcomes.push(EvalOutcome {
            task: (*task).to_string(),
            samples: vec![record.outcome],
        });
    }
    canonical_digest(label, outcomes, stats)
}

/// What one full pass over the grid measured.
#[derive(Debug)]
pub struct Pass {
    /// `Harness::new` (suite generation included) plus `library()`.
    pub setup_s: f64,
    /// Wall seconds of the evaluation, setup excluded.
    pub eval_s: f64,
    /// CPU seconds of this process during the evaluation.
    pub cpu_s: f64,
    /// Wall seconds of each section, in section order.
    pub section_s: Vec<f64>,
    /// Canonical digest of each section, in section order.
    pub digests: Vec<String>,
    /// Cells per section.
    pub cells_per_section: usize,
    /// Lifetime counters of the pass's EDA cache (`None` when off).
    pub cache: Option<CacheStats>,
    pub checkpoint_bytes: u64,
}

/// Runs one full grid pass with a fresh harness (and, for
/// [`GridKind::Cached`], a fresh checkpoint directory `scratch/tag`,
/// removed afterwards).
///
/// # Errors
///
/// Returns an error when the process CPU counters are unreadable or
/// the checkpoint directory cannot be prepared.
pub fn run_pass(kind: GridKind, scratch: &Path, tag: &str) -> Result<Pass, String> {
    let checkpoint = (kind == GridKind::Cached).then(|| scratch.join(format!("ckpt-{tag}")));
    if let Some(dir) = &checkpoint {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
    }
    let profiles = profiles::all();
    let t = Instant::now();
    let harness = Harness::new(harness_config(kind, checkpoint.as_deref()));
    let _ = harness.library();
    let setup_s = t.elapsed().as_secs_f64();

    let cpu0 = sys::cpu_seconds("self")?;
    let t = Instant::now();
    let mut pass = Pass {
        setup_s,
        eval_s: 0.0,
        cpu_s: 0.0,
        section_s: Vec::new(),
        digests: Vec::new(),
        cells_per_section: harness.problems().len(),
        cache: None,
        checkpoint_bytes: 0,
    };
    for section in sections(&profiles) {
        let ts = Instant::now();
        let (outcomes, stats) =
            harness.evaluate_with_stats(&profiles[section.profile], section.verilog, section.flow);
        pass.section_s.push(ts.elapsed().as_secs_f64());
        pass.digests
            .push(canonical_digest(&section.label, outcomes, stats));
    }
    pass.eval_s = t.elapsed().as_secs_f64();
    pass.cpu_s = sys::cpu_seconds("self")? - cpu0;
    pass.cache = harness.cache_stats();
    if let Some(dir) = &checkpoint {
        pass.checkpoint_bytes = sys::dir_bytes(dir);
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(pass)
}
