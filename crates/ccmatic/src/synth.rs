//! End-to-end synthesis: wire the generator and verifier into the CEGIS
//! engine (the paper's Table-1 experiment, "time to synthesize first
//! solution"). Synthesis is one serial loop; parallelism lives at the sweep
//! level, where independent threshold points fan out (DESIGN.md §10).

use crate::generator::{FeasibilityMode, Proposal, SmtGenerator};
use crate::replay::TraceReplay;
use crate::template::{CcaSpec, TemplateShape};
use crate::verifier::{CcaVerifier, CertAudit, SearchConfig, VerifyConfig};
use ccac_model::{NetConfig, Thresholds, Trace};
use ccmatic_cegis::{BatchProposal, Budget, Generator, Outcome, Stats, Verdict, Verifier};
use ccmatic_num::Rat;
use ccmatic_smt::Interrupt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// The default of [`SynthOptions::dispatch_min`]; nothing reads it.
pub const DEFAULT_DISPATCH_MIN: u128 = 1024;

/// Which of the paper's §3.1.2 optimizations to enable — the three columns
/// of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptMode {
    /// No optimizations: exact-trace feasibility, first counterexample.
    Baseline,
    /// Range pruning (RP).
    RangePruning,
    /// Range pruning + worst-case counterexamples (RP+WCE).
    RangePruningWce,
}

impl OptMode {
    /// The feasibility encoding this mode uses.
    pub fn feasibility(self) -> FeasibilityMode {
        match self {
            OptMode::Baseline => FeasibilityMode::Baseline,
            _ => FeasibilityMode::RangePruning,
        }
    }

    /// Whether the verifier maximizes counterexample ranges.
    pub fn worst_case(self) -> bool {
        matches!(self, OptMode::RangePruningWce)
    }

    /// Table-1 column label.
    pub fn label(self) -> &'static str {
        match self {
            OptMode::Baseline => "Baseline",
            OptMode::RangePruning => "RP",
            OptMode::RangePruningWce => "RP+WCE",
        }
    }
}

/// All knobs of one synthesis run.
#[derive(Clone, Debug)]
pub struct SynthOptions {
    /// The search space (Table 1's `Params`/`Domain` columns).
    pub shape: TemplateShape,
    /// Network model shape.
    pub net: NetConfig,
    /// Performance targets.
    pub thresholds: Thresholds,
    /// Optimization level (Table 1's method columns).
    pub mode: OptMode,
    /// Loop budget.
    pub budget: Budget,
    /// WCE binary-search precision.
    pub wce_precision: Rat,
    /// Use the verifier's incremental (push/pop scope) path.
    pub incremental: bool,
    /// Nothing reads it: synthesis always runs one serial loop.
    pub threads: usize,
    /// Nothing reads it: the search consumes no randomness.
    pub seed: u64,
    /// Nothing reads it: there is no parallel path to dispatch to.
    pub dispatch_min: u128,
    /// Certify every verifier verdict: UNSAT answers must carry a
    /// checker-accepted DRAT+Farkas certificate, SAT answers an
    /// exact-audited model (see [`VerifyConfig::certify`]).
    pub certify: bool,
    /// Region pruning (DESIGN.md §11): region-form σ encoding, the
    /// replay-verified dominance BFS, and counterexample-trace
    /// subsumption. On by default; the differential suite turns it off to
    /// pin pruned == unpruned outcomes.
    pub region_pruning: bool,
    /// Trail-synchronized incremental theory solving in every solver this
    /// run builds (verifier, generator, WCE probes). On by default; the
    /// `--no-theory-sync` escape hatch exists for same-build A/B timing
    /// and the trail-sync differential suite.
    pub theory_sync: bool,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            shape: TemplateShape::no_cwnd_small(),
            net: NetConfig::default(),
            thresholds: Thresholds::default(),
            mode: OptMode::RangePruningWce,
            budget: Budget::default(),
            wce_precision: Rat::new(1i64.into(), 4i64.into()),
            incremental: true,
            threads: 1,
            seed: 0,
            dispatch_min: DEFAULT_DISPATCH_MIN,
            certify: false,
            region_pruning: true,
            theory_sync: true,
        }
    }
}

/// Outcome of [`synthesize`].
#[derive(Debug)]
pub struct SynthResult {
    /// Solution / no-solution / budget.
    pub outcome: Outcome<CcaSpec>,
    /// Loop statistics (iterations, generator/verifier split — the columns
    /// of Table 1).
    pub stats: Stats,
    /// Underlying verifier probes (exceeds verifier calls when WCE
    /// binary-searches).
    pub verifier_probes: u64,
    /// Certificate-audit totals of the verifier (all zero unless
    /// `opts.certify`).
    pub cert_audit: CertAudit,
}

/// Adapter: [`SmtGenerator`] as a [`ccmatic_cegis::Generator`].
///
/// Deduplicates learned traces (the engine re-submits a counterexample it
/// already holds whenever the replay prefilter kills a candidate with it,
/// and asserting the same trace constraint twice only bloats the solver)
/// and — with region pruning on — *subsumes* them: a new trace whose kill
/// set is contained in an already-asserted trace's
/// ([`TraceReplay::subsumes`]) is dropped before assertion, keeping the
/// per-propose assertion set to the strongest traces only.
pub struct GenAdapter {
    /// The wrapped SMT generator.
    pub inner: SmtGenerator,
    /// Traces asserted into `inner` (append-only: the subsumption skip is
    /// sound only against traces that really are asserted).
    learned: Vec<Trace>,
    /// Subsumption oracle; must match `inner`'s configuration.
    replayer: TraceReplay,
    /// Whether subsumption filtering is enabled (mirrors
    /// [`SynthOptions::region_pruning`]).
    subsume: bool,
    /// Traces dropped because an already-asserted trace subsumed them.
    pub cex_subsumed: u64,
    /// Every (refuted candidate, trace) pair actually asserted, in order —
    /// the warm-start carry for the next sweep point, which re-validates
    /// each pair against *its* thresholds before re-asserting.
    refuted_log: Vec<(CcaSpec, Trace)>,
}

impl GenAdapter {
    /// Wrap `inner` with an empty learned-trace set. `replayer` must be
    /// built from the same net/thresholds/mode as `inner`.
    pub fn new(inner: SmtGenerator, replayer: TraceReplay, subsume: bool) -> Self {
        GenAdapter {
            inner,
            learned: Vec::new(),
            replayer,
            subsume,
            cex_subsumed: 0,
            refuted_log: Vec::new(),
        }
    }

    /// The (refuted candidate, trace) pairs asserted during this run, for
    /// warm-starting a neighboring problem instance.
    pub fn take_refuted_log(&mut self) -> Vec<(CcaSpec, Trace)> {
        std::mem::take(&mut self.refuted_log)
    }
}

impl Generator for GenAdapter {
    type Candidate = CcaSpec;
    type CounterExample = Trace;

    fn propose(&mut self) -> Option<CcaSpec> {
        self.inner.propose()
    }

    fn learn(&mut self, candidate: &CcaSpec, cex: &Trace) {
        // Canonicalize the waste schedule so equal-service traces from
        // distinct probes become comparable (subsumption requires waste
        // domination, and solver models carry arbitrary waste slack). Keep
        // the original when minimal waste no longer refutes the candidate
        // — canonicalization can move waste points, and the learned
        // constraint must exclude `candidate` for CEGIS to progress (see
        // `Trace::canonicalize_waste`).
        let mut canon = cex.clone();
        self.replayer.canonicalize(&mut canon);
        let cex = if self.replayer.refutes(candidate, &canon) { &canon } else { cex };
        if self.learned.iter().any(|t| t == cex) {
            return;
        }
        if self.subsume && self.learned.iter().any(|t| self.replayer.subsumes(t, cex)) {
            // An asserted trace already excludes everything this one
            // would (the refuted candidate included) — skip the assertion.
            self.cex_subsumed += 1;
            return;
        }
        self.inner.learn_refuted(candidate, cex);
        self.learned.push(cex.clone());
        self.refuted_log.push((candidate.clone(), cex.clone()));
    }

    /// One candidate from [`SmtGenerator::propose_interruptible`]; `k` is
    /// ignored (the loop always asks for one).
    fn propose_batch(&mut self, _k: usize, deadline: Option<Instant>) -> BatchProposal<CcaSpec> {
        let interrupt = Interrupt { deadline, cancel: None };
        let (candidate, interrupted) = match self.inner.propose_interruptible(&interrupt) {
            Proposal::Candidate(spec) => (Some(spec), false),
            Proposal::Exhausted => (None, false),
            Proposal::Interrupted => (None, true),
        };
        BatchProposal { candidates: candidate.into_iter().collect(), interrupted }
    }
}

/// Adapter: [`CcaVerifier`] as a [`ccmatic_cegis::Verifier`].
pub struct VerAdapter {
    /// The wrapped verifier. Probe counts and certificate-audit totals are
    /// read off `inner` directly after the run.
    pub inner: CcaVerifier,
}

impl VerAdapter {
    /// Wrap `inner`.
    pub fn new(inner: CcaVerifier) -> Self {
        VerAdapter { inner }
    }
}

impl Verifier for VerAdapter {
    type Candidate = CcaSpec;
    type CounterExample = Trace;

    fn verify(&mut self, candidate: &CcaSpec) -> Result<(), Trace> {
        self.inner.verify(candidate)
    }

    fn verify_interruptible(
        &mut self,
        candidate: &CcaSpec,
        deadline: Option<Instant>,
        cancel: Option<&Arc<AtomicBool>>,
    ) -> Verdict<Trace> {
        let interrupt = Interrupt { deadline, cancel: cancel.cloned() };
        self.inner.verify_interruptible(candidate, &interrupt)
    }
}

fn make_generator(opts: &SynthOptions) -> GenAdapter {
    // Certify mode also certifies the *generator*: base-level exhaustion
    // claims then carry an UNSAT certificate (retained by the result
    // cache as the enumeration-completeness proof).
    let build = if opts.certify { SmtGenerator::new_certified } else { SmtGenerator::new };
    let mut inner = build(
        opts.shape.clone(),
        opts.net.clone(),
        opts.thresholds.clone(),
        opts.mode.feasibility(),
    );
    inner.set_region_pruning(opts.region_pruning);
    inner.set_theory_sync(opts.theory_sync);
    GenAdapter::new(inner, make_replay(opts), opts.region_pruning)
}

fn make_verifier(opts: &SynthOptions) -> CcaVerifier {
    CcaVerifier::new(VerifyConfig {
        net: opts.net.clone(),
        thresholds: opts.thresholds.clone(),
        worst_case: opts.mode.worst_case(),
        wce_precision: opts.wce_precision.clone(),
        incremental: opts.incremental,
        certify: opts.certify,
        search: SearchConfig,
        theory_sync: opts.theory_sync,
    })
}

/// The replay prefilter matching `opts`' generator semantics.
pub fn make_replay(opts: &SynthOptions) -> TraceReplay {
    TraceReplay::new(opts.net.clone(), opts.thresholds.clone(), opts.mode.feasibility())
}

/// Build the generator/verifier pair for `opts`.
pub fn build_loop(opts: &SynthOptions) -> (GenAdapter, VerAdapter) {
    (make_generator(opts), VerAdapter::new(make_verifier(opts)))
}

/// Run CEGIS until the first solution (or exhaustion/budget): the serial
/// loop with the concrete replay prefilter, no warm-start seeds.
pub fn synthesize(opts: &SynthOptions) -> SynthResult {
    synthesize_seeded(opts, &[])
}

/// CEGIS warm-started from externally found counterexamples —
/// the fuzzer's feedback path. Each `(refuted, trace)` seed is re-gated
/// through the replay semantics of *this* configuration: seeds that still
/// refute their candidate are asserted into the generator before the first
/// proposal (counted in `stats.warm_traces_seeded`), the rest are demoted
/// to the replay prefilter (`stats.warm_traces_rejected`). This mirrors
/// the sweep's cross-point warm start ([`crate::enumerate`]), so a seed
/// can come from a different threshold point — or from a simulator — and
/// still be used soundly.
pub fn synthesize_seeded(opts: &SynthOptions, seeds: &[(CcaSpec, Trace)]) -> SynthResult {
    use ccmatic_cegis::Generator as _;
    let mut generator = make_generator(opts);
    let replayer = make_replay(opts);
    let mut verifier = VerAdapter::new(make_verifier(opts));
    let mut warm_seeded = 0u64;
    let mut warm_rejected = 0u64;
    let mut replay_seeds: Vec<Trace> = Vec::new();
    // Fuzz targets need not live in this run's search space (e.g. a broken
    // γ outside the coefficient domain); the region-pruning BFS around a
    // refuted point only makes sense for representable candidates, so
    // off-grid seeds assert their trace constraint alone.
    let domain = opts.shape.domain.values();
    let on_grid = |c: &CcaSpec| {
        let flat = c.flat();
        flat.len() == opts.shape.num_coefficients() && flat.iter().all(|v| domain.contains(v))
    };
    for (refuted, trace) in seeds {
        if replayer.refutes(refuted, trace) {
            if on_grid(refuted) {
                generator.learn(refuted, trace);
            } else {
                generator.inner.learn(trace);
            }
            warm_seeded += 1;
        } else {
            warm_rejected += 1;
            replay_seeds.push(trace.clone());
        }
    }
    let replay = |c: &CcaSpec, cex: &Trace| replayer.refutes(c, cex);
    let mut run = ccmatic_cegis::run_with_replay_seeded(
        &mut generator,
        &mut verifier,
        replay,
        &opts.budget,
        replay_seeds,
    );
    run.stats.warm_traces_seeded = warm_seeded;
    run.stats.warm_traces_rejected = warm_rejected;
    run.stats.regions_pruned = generator.inner.regions_pruned;
    run.stats.cex_subsumed = generator.cex_subsumed;
    SynthResult {
        outcome: run.outcome,
        stats: run.stats,
        verifier_probes: verifier.inner.solver_probes,
        cert_audit: verifier.inner.cert_audit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::CoeffDomain;
    use ccmatic_num::int;
    use std::time::Duration;

    /// A reduced configuration that keeps unit-test times low: shorter
    /// horizon and lookback 3 (RoCC needs taps at t−1 and t−3, so lookback
    /// 3 still contains it: 3³·... candidates).
    fn quick_opts(mode: OptMode) -> SynthOptions {
        SynthOptions {
            shape: TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
            net: NetConfig {
                horizon: 6,
                history: 4,
                link_rate: Rat::one(),
                jitter: 1,
                buffer: None,
            },
            thresholds: Thresholds::default(),
            mode,
            budget: Budget { max_iterations: 400, max_wall: Duration::from_secs(240) },
            wce_precision: Rat::new(1i64.into(), 2i64.into()),
            incremental: true,
            threads: 1,
            seed: 0,
            dispatch_min: DEFAULT_DISPATCH_MIN,
            certify: false,
            region_pruning: true,
            theory_sync: true,
        }
    }

    #[test]
    fn dominated_serial_trace_is_subsumed_before_assertion() {
        use ccmatic_cegis::Generator as _;
        let opts = quick_opts(OptMode::RangePruningWce);
        let mut gen = make_generator(&opts);
        let cand = CcaSpec::zero(&opts.shape);

        // A hand-built counterexample to the zero CCA: nothing is ever
        // sent or served, so the floors force the link to waste the whole
        // token line (W(t) = C·(t+h)) and utilization is zero.
        let (t_min, t_max) = (opts.net.t_min(), opts.net.t_max());
        let h = opts.net.history as i64;
        let len = (t_max - t_min + 1) as usize;
        let zeros = vec![Rat::zero(); len];
        let cex = Trace {
            t_min,
            t_max,
            a: zeros.clone(),
            s: zeros.clone(),
            w: (t_min..=t_max).map(|t| int(t + h)).collect(),
            l: zeros.clone(),
            cwnd: zeros,
        };
        gen.learn(&cand, &cex);
        assert_eq!(gen.cex_subsumed, 0);

        // A second probe's trace: same service schedule and pre-history,
        // different replayed arrivals, and a differently-slacked waste
        // schedule — exactly how equal-service counterexamples from
        // distinct candidates used to differ before canonicalization.
        let mut other = cex.clone();
        other.a[len - 1] = int(1);
        let ceiling = int(t_max + h);
        for i in (h as usize)..len {
            other.w[i] = ceiling.clone();
        }
        assert_ne!(other, cex);
        gen.learn(&cand, &other);
        assert_eq!(gen.cex_subsumed, 1, "dominated serial trace must be dropped, not asserted");
    }

    #[test]
    fn certified_synthesis_checks_every_unsat_verdict() {
        let opts = SynthOptions { certify: true, ..quick_opts(OptMode::RangePruningWce) };
        let result = synthesize(&opts);
        let Outcome::Solution(_) = result.outcome else { panic!("no solution") };
        // The accepting Pass verdict (and every certified infeasibility
        // probe before it) must have been replayed by the checker.
        assert!(result.cert_audit.checked >= 1, "accepting verdict must be certified");
        assert!(result.cert_audit.bytes > 0);
    }

    #[test]
    fn synthesis_finds_a_working_cca_with_rp_wce() {
        let opts = quick_opts(OptMode::RangePruningWce);
        let result = synthesize(&opts);
        match result.outcome {
            Outcome::Solution(spec) => {
                // Sound by construction, but double-check with a fresh
                // verifier.
                let mut v = CcaVerifier::new(VerifyConfig {
                    net: opts.net.clone(),
                    thresholds: opts.thresholds.clone(),
                    worst_case: false,
                    wce_precision: opts.wce_precision.clone(),
                    incremental: true,
                    certify: false,
                    search: SearchConfig,
                    theory_sync: true,
                });
                assert!(v.verify(&spec).is_ok(), "synthesized CCA failed re-verification: {spec}");
            }
            other => panic!("expected a solution, got {other:?}"),
        }
        assert!(result.stats.iterations >= 1);
    }

    #[test]
    fn synthesized_solution_resembles_rocc() {
        // In the small no-cwnd space the survivors are RoCC-like: rate
        // taps that sum to ~0 with a positive additive term, i.e. cwnd ≈
        // bytes delivered over a recent window + constant.
        let opts = quick_opts(OptMode::RangePruningWce);
        let result = synthesize(&opts);
        let Outcome::Solution(spec) = result.outcome else { panic!("no solution") };
        let tap_sum = spec.beta.iter().fold(Rat::zero(), |acc, b| &acc + b);
        assert!(tap_sum.is_zero(), "rate taps should cancel (rate-proportional rule), got {spec}");
        assert!(spec.gamma > int(0), "needs a positive additive term, got {spec}");
    }

    #[test]
    fn wall_budget_interrupts_mid_query_on_large_domain() {
        // The Large-domain WCE searches run far past 5 s per query; without
        // the in-solver interrupt the loop could only notice the deadline
        // between iterations, minutes late. Accept a ~3 s grace for the
        // fixpoint-poll granularity and scheduling.
        let opts = SynthOptions {
            shape: TemplateShape { lookback: 4, use_cwnd: false, domain: CoeffDomain::Large },
            net: NetConfig {
                horizon: 9,
                history: 5,
                link_rate: Rat::one(),
                jitter: 1,
                buffer: None,
            },
            budget: Budget { max_iterations: 1_000_000, max_wall: Duration::from_secs(5) },
            ..quick_opts(OptMode::RangePruningWce)
        };
        let start = Instant::now();
        let r = synthesize(&opts);
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(8), "overshot its 5s wall budget: {elapsed:?}");
        if let Outcome::Solution(spec) = &r.outcome {
            let mut v = CcaVerifier::new(VerifyConfig {
                net: opts.net.clone(),
                thresholds: opts.thresholds.clone(),
                ..VerifyConfig::default()
            });
            assert!(v.verify(spec).is_ok(), "solution failed re-verification: {spec}");
        }
    }
}
