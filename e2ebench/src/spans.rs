//! The benchmark's own tracing: spans recorded around its calls into each
//! layer, kept in memory and summarised when the run ends. Recording is
//! off in the untraced run, so end-to-end figures never pay for it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the benchmark was calling.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offset from the recorder's epoch.
    pub start: Duration,
    /// Offset from the recorder's epoch.
    pub end: Duration,
}

/// In-memory span recorder. Spans nest by call structure: a span opened
/// inside [`Recorder::scope`] is a child of the enclosing one.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// Every span recorded so far, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times (seconds) of the spans named `name`, one per span.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| d.as_secs_f64())
            .collect()
    }

    /// One line per span name: count, total and self time.
    pub fn summary(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut rows: BTreeMap<&str, (usize, Duration, Duration)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(selfs) {
            let row = rows.entry(span.name).or_default();
            row.0 += 1;
            row.1 += span.end.saturating_sub(span.start);
            row.2 += own;
        }
        rows.iter()
            .map(|(name, (n, total, own))| {
                format!(
                    "span {name:<14} n={n:<4} total={:>10.3}ms self={:>10.3}ms\n",
                    total.as_secs_f64() * 1e3,
                    own.as_secs_f64() * 1e3
                )
            })
            .collect()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children. Children that overlap each other are counted
/// once, and any part of a child outside its parent is ignored.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end.saturating_sub(s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start: ms(start),
            end: ms(end),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", None, 0, 100),
            // Two overlapping children cover 10..50 once.
            span("run", Some(0), 10, 30),
            span("read", Some(0), 20, 50),
            // A child running past its parent counts only up to 100.
            span("verify", Some(0), 90, 120),
            // A grandchild is covered by its parent, not by "job".
            span("inner", Some(1), 12, 18),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], ms(50));
        assert_eq!(selfs[1], ms(14));
        assert_eq!(selfs[2], ms(30));
        assert_eq!(selfs[3], ms(30));
        assert_eq!(selfs[4], ms(6));
    }

    #[test]
    fn a_childless_span_is_all_self_time() {
        assert_eq!(self_times(&[span("a", None, 5, 9)]), vec![ms(4)]);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn recorder_nests_scopes_and_records_nothing_when_off() {
        let mut rec = Recorder::new(true);
        rec.scope("outer", |rec| {
            rec.scope("inner", |_| ());
            rec.scope("inner", |_| ());
        });
        let parents: Vec<_> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert_eq!(rec.self_secs("inner").len(), 2);

        let mut off = Recorder::new(false);
        assert_eq!(off.scope("outer", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
