//! In-memory span recorder for the traced run.
//!
//! A span brackets one call into a crate's public API (a layer) or one
//! pipeline stage of the benchmark itself. Spans are recorded only when the
//! recorder is enabled, kept in memory, and written out once the run ends.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans; a disabled recorder does nothing.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Recorder::enter`]; pass it back to [`Recorder::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, handle: Open) {
        let Some(id) = handle.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the time its direct children cover.
    /// Children of one span run one after another, so their durations add.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    /// The share of each span named `stage.*` that its direct children
    /// cover, as `(stage name, covered share, wall seconds)`.
    pub fn stage_coverage(&self) -> Vec<(&'static str, f64, f64)> {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name.starts_with("stage."))
            .map(|(s, &o)| {
                let d = s.duration();
                (s.name, if d > 0.0 { 1.0 - o / d } else { 1.0 }, d)
            })
            .collect()
    }

    /// The spans as a JSON array, each tagged with `workload`.
    pub fn to_json(&self, workload: &str) -> serde_json::Value {
        serde_json::Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    serde_json::json!({
                        "name": s.name,
                        "start_s": s.start,
                        "end_s": s.end,
                        "parent": s.parent,
                        "workload": workload,
                    })
                })
                .collect(),
        )
    }
}
