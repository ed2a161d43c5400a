//! The elaborated design of one clean compile, kept for the next
//! simulate of the same candidate (`xelab`'s snapshot, run by `xsim`).

use std::sync::Arc;

use aivril_hdl::ir::Design;

use crate::report::CompileReport;
use crate::source::HdlFile;

/// A clean compile: its exact input files, its unshaped report and the
/// design it elaborated. Produced by
/// [`ToolSuite::compile_snapshot`](crate::ToolSuite::compile_snapshot)
/// and [`ToolSuite::simulate_snapshot`](crate::ToolSuite::simulate_snapshot);
/// a failed compile yields none.
#[derive(Debug)]
pub struct Snapshot {
    pub(crate) files: Vec<HdlFile>,
    /// The compile's report before any injected log fault shaped it.
    pub(crate) report: CompileReport,
    pub(crate) design: Arc<Design>,
    /// Whether `design` is what a compile with no requested top
    /// elaborates (the auto-detected top).
    pub(crate) auto_top: bool,
}

impl Snapshot {
    /// Whether compiling `files` for `top` would elaborate this very
    /// design: the files are byte-equal (names, texts and languages,
    /// compared directly) and `top` is the top the design was
    /// elaborated for.
    pub(crate) fn matches(&self, files: &[HdlFile], top: Option<&str>) -> bool {
        let same_top = match top {
            Some(top) => top == self.design.top,
            None => self.auto_top,
        };
        same_top && self.files == files
    }
}
