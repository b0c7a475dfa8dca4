//! The traced synthesis loop: `ccmatic::synthesize`'s serial path rebuilt
//! from the crate's public pieces (`build_loop`, `make_replay`,
//! `run_with_replay`), with the generator, verifier and replay oracle each
//! wrapped in a span.

use crate::layers::Recorder;
use ccac_model::Trace;
use ccmatic::synth::{build_loop, make_replay, GenAdapter, SynthOptions, VerAdapter};
use ccmatic::template::CcaSpec;
use ccmatic_cegis::{BatchProposal, Generator, Outcome, Stats, Verdict, Verifier};
use std::cell::RefCell;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Run `f` inside a span named `name`.
fn span<T>(rec: &RefCell<Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = rec.borrow_mut().enter(name);
    let out = f();
    rec.borrow_mut().exit(id);
    out
}

struct TimedGen<'a> {
    inner: &'a mut GenAdapter,
    rec: &'a RefCell<Recorder>,
    learned: Vec<(CcaSpec, Trace)>,
}

impl Generator for TimedGen<'_> {
    type Candidate = CcaSpec;
    type CounterExample = Trace;

    fn propose(&mut self) -> Option<CcaSpec> {
        span(self.rec, "generator.propose", || self.inner.propose())
    }

    fn learn(&mut self, candidate: &CcaSpec, cex: &Trace) {
        span(self.rec, "generator.learn", || self.inner.learn(candidate, cex));
        self.learned.push((candidate.clone(), cex.clone()));
    }

    fn propose_batch(&mut self, k: usize, deadline: Option<Instant>) -> BatchProposal<CcaSpec> {
        span(self.rec, "generator.propose", || self.inner.propose_batch(k, deadline))
    }
}

struct TimedVer<'a> {
    inner: &'a mut VerAdapter,
    rec: &'a RefCell<Recorder>,
}

impl Verifier for TimedVer<'_> {
    type Candidate = CcaSpec;
    type CounterExample = Trace;

    fn verify(&mut self, candidate: &CcaSpec) -> Result<(), Trace> {
        span(self.rec, "verifier.verify", || self.inner.verify(candidate))
    }

    fn verify_interruptible(
        &mut self,
        candidate: &CcaSpec,
        deadline: Option<Instant>,
        cancel: Option<&Arc<AtomicBool>>,
    ) -> Verdict<Trace> {
        span(self.rec, "verifier.verify", || {
            self.inner.verify_interruptible(candidate, deadline, cancel)
        })
    }
}

/// One traced synthesis job.
pub struct TracedSynth {
    pub outcome: Outcome<CcaSpec>,
    pub stats: Stats,
    pub solver_probes: u64,
    pub regions_pruned: u64,
    pub cex_subsumed: u64,
    /// Every (candidate, counterexample) pair handed to the generator.
    pub learned: Vec<(CcaSpec, Trace)>,
    pub rec: Recorder,
    /// The job's root span.
    pub root: usize,
}

/// Run one serial synthesis job under spans: `cegis.run` (the loop's own
/// time), `cegis.setup`, `generator.propose`, `generator.learn`,
/// `replay.refutes` and `verifier.verify`.
pub fn synthesize_traced(opts: &SynthOptions) -> TracedSynth {
    let rec = RefCell::new(Recorder::default());
    let root = rec.borrow_mut().enter("cegis.run");
    let ((mut generator, mut verifier), replayer) =
        span(&rec, "cegis.setup", || (build_loop(opts), make_replay(opts)));
    let replay =
        |c: &CcaSpec, cex: &Trace| span(&rec, "replay.refutes", || replayer.refutes(c, cex));
    let mut gen = TimedGen { inner: &mut generator, rec: &rec, learned: Vec::new() };
    let mut ver = TimedVer { inner: &mut verifier, rec: &rec };
    let run = ccmatic_cegis::run_with_replay(&mut gen, &mut ver, replay, &opts.budget);
    let learned = gen.learned;
    rec.borrow_mut().exit(root);
    TracedSynth {
        outcome: run.outcome,
        stats: run.stats,
        solver_probes: verifier.inner.solver_probes,
        regions_pruned: generator.inner.regions_pruned,
        cex_subsumed: generator.cex_subsumed,
        learned,
        rec: rec.into_inner(),
        root,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{ci_shape, synth_opts};
    use ccmatic::synth::synthesize;
    use ccmatic::template::CoeffDomain;

    fn same_kind(a: &Outcome<CcaSpec>, b: &Outcome<CcaSpec>) -> bool {
        std::mem::discriminant(a) == std::mem::discriminant(b)
    }

    /// The traced loop mirrors `synthesize`: same outcome kind, same
    /// iteration count, and the spans cover the job up to a small remainder.
    #[test]
    fn traced_loop_mirrors_synthesize() {
        for (opts, solves) in [
            (synth_opts(ci_shape(false, CoeffDomain::Small), 1_000_000, 0), true),
            (synth_opts(ci_shape(true, CoeffDomain::Small), 3, 0), false),
        ] {
            let plain = synthesize(&opts);
            let traced = synthesize_traced(&opts);
            assert!(same_kind(&plain.outcome, &traced.outcome), "{:?}", traced.outcome);
            assert_eq!(matches!(traced.outcome, Outcome::Solution(_)), solves);
            assert_eq!(plain.stats.iterations, traced.stats.iterations);
            assert_eq!(plain.stats.verifier_calls, traced.stats.verifier_calls);
            assert_eq!(traced.rec.count("verifier.verify"), traced.stats.verifier_calls);
            let wall = traced.rec.secs(traced.root);
            let unattributed = traced.rec.self_secs("cegis.run");
            assert!(unattributed / wall < 0.05, "unattributed {unattributed}s of {wall}s");
        }
    }
}
