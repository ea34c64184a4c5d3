//! Structured compile-pipeline report: per-stage timings plus summary
//! counts, renderable as text or JSON.

use crate::json;
use crate::snapshot::{Kind, Snapshot};
use std::fmt;

/// One pipeline stage's wall-clock cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage name, e.g. `"grammar_parse"`, `"token_duplication"`.
    pub stage: String,
    /// Wall-clock nanoseconds spent in the stage.
    pub nanos: u64,
}

/// A report over one run of the compile pipeline (grammar → hardware).
///
/// Built by `TokenTagger::compile`; stages appear in execution order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileReport {
    /// Per-stage timings in execution order.
    pub stages: Vec<StageTiming>,
    /// Summary counts, e.g. `("tokens", 13)`, `("gates", 412)`.
    pub counts: Vec<(String, u64)>,
}

impl CompileReport {
    /// Append a stage timing.
    pub fn stage(&mut self, stage: impl Into<String>, nanos: u64) {
        self.stages.push(StageTiming { stage: stage.into(), nanos });
    }

    /// Append a summary count.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.push((name.into(), value));
    }

    /// Total nanoseconds across all stages.
    pub fn total_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    /// Look up a count by name.
    pub fn get_count(&self, name: &str) -> Option<u64> {
        self.counts.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Encode as a JSON object:
    /// `{"stages":[{"stage":...,"nanos":...}],"total_nanos":...,"counts":{...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"stage\":");
            json::push_str(&mut out, &s.stage);
            out.push_str(&format!(",\"nanos\":{}}}", s.nanos));
        }
        out.push_str(&format!("],\"total_nanos\":{},\"counts\":", self.total_nanos()));
        out.push_str(&json::object_u64(
            &self.counts.iter().map(|(k, v)| (k.as_str(), *v)).collect::<Vec<_>>(),
        ));
        out.push('}');
        out
    }

    /// Write the compile families: per-stage wall time
    /// (`cfgtag_compile_stage_ns`, `stage` label, execution order) and
    /// the summary counts (`cfgtag_compile_count`, `name` label).
    pub fn export(&self, snap: &mut Snapshot) {
        let stages = snap.push("cfgtag_compile_stage_ns", Kind::Gauge);
        for s in &self.stages {
            stages.push(&[("stage", &s.stage)], s.nanos as f64);
        }
        let counts = snap.push("cfgtag_compile_count", Kind::Gauge);
        for (name, value) in &self.counts {
            counts.push(&[("name", name)], *value as f64);
        }
    }
}

impl fmt::Display for CompileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "compile pipeline ({} stages):", self.stages.len())?;
        let total = self.total_nanos().max(1);
        for s in &self.stages {
            writeln!(
                f,
                "  {:<24} {:>10.3} ms  {:>5.1}%",
                s.stage,
                s.nanos as f64 / 1e6,
                s.nanos as f64 * 100.0 / total as f64
            )?;
        }
        writeln!(f, "  {:<24} {:>10.3} ms", "total", self.total_nanos() as f64 / 1e6)?;
        for (name, value) in &self.counts {
            writeln!(f, "  {name:<24} {value:>10}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_in_order() {
        let mut r = CompileReport::default();
        r.stage("grammar_parse", 1000);
        r.stage("hwgen", 2000);
        r.count("tokens", 13);
        assert_eq!(r.total_nanos(), 3000);
        assert_eq!(r.get_count("tokens"), Some(13));
        assert_eq!(r.get_count("missing"), None);
        assert_eq!(r.stages[0].stage, "grammar_parse");
    }

    #[test]
    fn report_json_shape() {
        let mut r = CompileReport::default();
        r.stage("a", 10);
        r.stage("b", 20);
        r.count("gates", 5);
        let json = r.to_json();
        assert_eq!(
            json,
            "{\"stages\":[{\"stage\":\"a\",\"nanos\":10},{\"stage\":\"b\",\"nanos\":20}],\
             \"total_nanos\":30,\"counts\":{\"gates\":5}}"
        );
    }

    #[test]
    fn report_display_has_percentages() {
        let mut r = CompileReport::default();
        r.stage("x", 750);
        r.stage("y", 250);
        let text = r.to_string();
        assert!(text.contains("75.0%"));
        assert!(text.contains("25.0%"));
        assert!(text.contains("total"));
    }
}
