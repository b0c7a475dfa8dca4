//! Per-layer observation from outside the program: process-wide counter
//! readings taken around each job, and spans recorded around the calls the
//! harness makes into each layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One reading of the program's process-wide counters. The harness runs one
/// job at a time on one thread, so the difference of two readings taken
/// around a job belongs to that job alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    small_ops: u64,
    promotions: u64,
    big_ops: u64,
    pivots: u64,
    theory_props: u64,
    bounds_asserted: u64,
    bounds_reused: u64,
}

impl Counters {
    /// Read every counter now.
    pub fn read() -> Counters {
        let arith = ccmatic_num::arith_snapshot();
        let theory = ccmatic_smt::theory_counters();
        Counters {
            small_ops: arith.small_ops,
            promotions: arith.promotions,
            big_ops: arith.big_ops,
            pivots: ccmatic_smt::lra::pivots_total(),
            theory_props: theory.theory_props,
            bounds_asserted: theory.bounds_asserted,
            bounds_reused: theory.bounds_reused,
        }
    }

    /// The counts accumulated since `before`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            small_ops: self.small_ops - before.small_ops,
            promotions: self.promotions - before.promotions,
            big_ops: self.big_ops - before.big_ops,
            pivots: self.pivots - before.pivots,
            theory_props: self.theory_props - before.theory_props,
            bounds_asserted: self.bounds_asserted - before.bounds_asserted,
            bounds_reused: self.bounds_reused - before.bounds_reused,
        }
    }

    /// Share of counted arithmetic that stayed on the machine-word path.
    pub fn fast_fraction(&self) -> f64 {
        let total = self.small_ops + self.promotions + self.big_ops;
        if total == 0 {
            1.0
        } else {
            self.small_ops as f64 / total as f64
        }
    }

    /// The `smt`, `lra` and `num` per-layer metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("smt.theory_props", self.theory_props as f64),
            ("smt.bounds_asserted", self.bounds_asserted as f64),
            ("smt.bounds_reused", self.bounds_reused as f64),
            ("lra.pivots", self.pivots as f64),
            ("num.small_ops", self.small_ops as f64),
            ("num.big_ops", self.big_ops as f64),
            ("num.promotions", self.promotions as f64),
            ("num.fast_fraction", self.fast_fraction()),
        ]
    }
}

/// A timed call into one layer. `parent` is the span that was open when
/// this one started.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// Time a layer measured inside the program and reported through its
/// public state, nested in one of the harness's spans.
#[derive(Clone, Debug)]
struct Reported {
    parent: usize,
    name: &'static str,
    secs: f64,
}

/// In-memory span log for one unit of a run.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    reported: Vec<Reported>,
    open: Vec<usize>,
}

impl Recorder {
    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span { name, start: now, end: now, parent: self.open.last().copied() });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in reverse order of opening");
        self.spans[id].end = Instant::now();
    }

    /// Attach `secs` of work that the program timed itself under `name`,
    /// inside the closed span `parent`.
    pub fn report(&mut self, parent: usize, name: &'static str, secs: f64) {
        self.reported.push(Reported { parent, name, secs });
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end.duration_since(s.start).as_secs_f64()
    }

    /// Per name: summed self time (duration minus the part its child spans
    /// and reported times cover) and the number of spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end.duration_since(s.start).as_secs_f64();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for r in &self.reported {
            child[r.parent] += r.secs;
            out.entry(r.name).or_default().0 += r.secs;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += self.secs(i) - child[i];
            e.1 += 1;
        }
        out
    }

    /// Self time of `name` in seconds (0 when no such span was recorded).
    pub fn self_secs(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |e| e.0)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.self_times().get(name).map_or(0, |e| e.1)
    }

    /// The spans as tab-separated lines: unit, span id, name, parent, start
    /// and end in seconds from `origin`. A reported time has `reported` for
    /// its id, no start, and its seconds in the last column.
    pub fn write_tsv(&self, unit: usize, origin: Instant, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{unit}\t{i}\t{}\t{parent}\t{:.9}\t{:.9}",
                s.name,
                s.start.duration_since(origin).as_secs_f64(),
                s.end.duration_since(origin).as_secs_f64()
            );
        }
        for r in &self.reported {
            let _ = writeln!(out, "{unit}\treported\t{}\t{}\t-\t{:.9}", r.name, r.parent, r.secs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_reported_time() {
        let mut rec = Recorder::default();
        let job = rec.enter("job");
        let a = rec.enter("a");
        std::thread::sleep(std::time::Duration::from_millis(4));
        rec.exit(a);
        rec.exit(job);
        rec.report(a, "inner", 0.001);
        let st = rec.self_times();
        let total: f64 = st.values().map(|e| e.0).sum();
        assert!((total - rec.secs(job)).abs() < 1e-9, "self times partition the root span");
        assert!((st["inner"].0 - 0.001).abs() < 1e-12);
        assert!(st["a"].0 >= 0.002);
        assert_eq!(st["job"].1, 1);
    }
}
