//! The tiered execution manager: profile → recompile → swap, mid-run.
//!
//! Tier 0 compiles the whole module at a cheap baseline configuration
//! (Whaley elimination + trivial trap conversion, the paper's "Old Null
//! Check") with site counters on, and starts the VM with a
//! [`RuntimeHooks`](njc_vm::RuntimeHooks) control surface attached. The
//! service controller polls the published profile; when the
//! [`ProfilePolicy`] finds a hot function — or, the interesting case, a
//! hot *trapping* implicit site — the function is recompiled at the
//! optimizing tier with the trapping slots forced explicit via
//! [`ExplicitOverride`], on the service's worker pool. The finished body
//! is installed into the swap table and takes effect at the next call
//! entry, heap and observation trace carrying straight through.
//!
//! After the adaptive run, any outstanding policy verdict is compiled
//! synchronously (`finalize_tiers`, so the tiering always reaches its
//! fixpoint), and a second, *measurement* run executes the final bodies
//! with no adaptation — that run is fully deterministic, which is what
//! the steady-state benchmark reports.
//!
//! There is one adaptive loop, in [`crate::tenant`]: [`TieredRuntime`] is
//! a one-tenant [`ServiceRuntime`] run. This module holds what both share
//! — the knobs, the outcome and its checks, the tier-1 compile path, and
//! the fixpoint pass.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use njc_arch::Platform;
use njc_core::ExplicitOverride;
use njc_ir::{BlockId, CheckId, Function, FunctionId, Module};
use njc_observe::{
    reconcile, reconcile_recovered_tiered, FunctionTrace, ModuleTrace, RecompileEvent,
};
use njc_opt::{optimize_function_overridden, ConfigKind, OptConfig};
use njc_recover::{RecoveryCounts, RecoveryPolicy};
use njc_vm::{Fault, Outcome, SiteCounters, Value, VmConfig};

use crate::cache::{CacheKey, CacheStats, CompiledArtifact};
use crate::policy::ProfilePolicy;
use crate::shard::ShardedCodeCache;
use crate::tenant::{ServiceConfig, ServiceRuntime, TenantSpec};

/// Knobs of the tiered loop.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RuntimeConfig {
    /// The profile policy (thresholds from the platform's cost model).
    pub policy: ProfilePolicy,
    /// Safe points between profile publications
    /// ([`RuntimeHooks::new`](njc_vm::RuntimeHooks::new)).
    pub snapshot_interval: u64,
    /// The baseline tier every function starts in.
    pub tier0: ConfigKind,
    /// The optimizing tier hot functions are recompiled at.
    pub tier1: ConfigKind,
    /// Run the interprocedural non-nullness inference (`njc-interproc`) in
    /// every tier compile. Mid-run recompiles re-infer over the prepared
    /// module, so swapped-in bodies carry the same entry assumptions the
    /// single-shot compile would.
    pub interproc: bool,
    /// Run the value-numbered forward non-nullness (`OptConfig::gvn`) in
    /// every tier compile, so copies, phi merges, and re-loaded fields
    /// keep their facts across recompiles too.
    pub gvn: bool,
    /// Tier *down* as well as up: drop overrides whose sites have
    /// quiesced (windowed mid-run via
    /// [`ProfilePolicy::assess_tier_down`], cumulative at the fixpoint
    /// via [`ProfilePolicy::assess_cumulative`]). Off reproduces the
    /// grow-only behavior.
    pub tier_down: bool,
    /// Controller sleep between profile polls, in microseconds. Large
    /// values fault-inject a *starved controller*: the profile goes stale
    /// between polls and recompiles land late or not at all — observable
    /// behavior must not change.
    pub controller_poll_micros: u64,
    /// Artificial delay inserted by workers between finishing a compile
    /// and installing it, in microseconds. Fault-injects a *delayed
    /// install channel* — observable behavior must not change.
    pub install_delay_micros: u64,
    /// Fault injection: every tier-1 compile of the named function
    /// panics mid-compile, as a buggy optimizer pass would. The runtime
    /// must survive — workers catch the unwind, poisoned locks are
    /// re-entered, the function simply stays at its last installed tier,
    /// and observable behavior must not change.
    pub panic_on_compile_of: Option<&'static str>,
    /// VM limits for both the adaptive and the measurement run.
    pub vm: VmConfig,
}

impl RuntimeConfig {
    /// Defaults for `platform`: break-even thresholds from its cost model,
    /// Old Null Check as tier 0, the full pipeline as tier 1.
    pub fn for_platform(platform: &Platform) -> Self {
        RuntimeConfig {
            policy: ProfilePolicy::from_cost(&platform.cost),
            snapshot_interval: 32,
            tier0: ConfigKind::OldNullCheck,
            tier1: ConfigKind::Full,
            interproc: false,
            gvn: false,
            tier_down: true,
            controller_poll_micros: 200,
            install_delay_micros: 0,
            panic_on_compile_of: None,
            vm: VmConfig::default(),
        }
    }
}

/// What one tiered run produced.
#[derive(Clone, Debug)]
pub struct RuntimeOutcome {
    /// The adaptive run: tier 0 with counters, swaps landing mid-run.
    /// Timing-dependent (when a swap lands shifts the cycle total) — use
    /// [`RuntimeOutcome::steady`] for reproducible measurements.
    pub adaptive: Outcome,
    /// The deterministic steady-state run over the final bodies.
    pub steady: Outcome,
    /// Every recompile, in completion order (mid-run installs first, then
    /// the post-run fixpoint pass).
    pub recompiles: Vec<RecompileEvent>,
    /// Code cache counters after the run.
    pub cache: CacheStats,
    /// Final override set per recompiled function name.
    pub overrides: BTreeMap<String, ExplicitOverride>,
    /// Calls that entered a swapped body during the adaptive run.
    pub mid_run_swaps: u64,
    /// The module the steady run executed: tier-0 bodies with every
    /// recompiled function replaced by its final tier-1 body.
    pub final_module: Module,
    /// Tier-0 provenance for the whole module.
    pub tier0_trace: ModuleTrace,
    /// Every tier's provenance per function, install order (tier 0
    /// first). Input to tiered reconciliation.
    pub tier_traces: BTreeMap<String, Vec<FunctionTrace>>,
    /// Compile jobs that panicked mid-compile and were survived: the
    /// worker caught the unwind, any poisoned lock was re-entered, and
    /// the function stayed at its last installed tier.
    pub compile_panics: u64,
    /// Hardware traps recovered per strategy across the adaptive *and*
    /// steady runs (both execute under the runtime's
    /// [`RecoveryPolicy`]). Recovered traps still count in
    /// `traps_taken`; this splits off the ones the policy kept alive.
    pub recoveries: RecoveryCounts,
}

impl RuntimeOutcome {
    /// Tiered reconciliation of the *adaptive* run: every hardware trap
    /// and every executed explicit check must resolve to a provenance
    /// record in some installed tier of its function.
    ///
    /// # Errors
    /// One line per unexplained observation.
    pub fn reconcile(&self) -> Result<(), Vec<String>> {
        let mut failures = Vec::new();
        for fi in 0..self.final_module.num_functions() {
            let name = self.final_module.function(FunctionId::new(fi)).name();
            let Some(tiers) = self.tier_traces.get(name) else {
                failures.push(format!("{name}: no tier traces"));
                continue;
            };
            let refs: Vec<&FunctionTrace> = tiers.iter().collect();
            let traps: Vec<(BlockId, usize)> = self
                .adaptive
                .site_counts
                .traps
                .keys()
                .filter(|(f, _, _)| *f as usize == fi)
                .map(|&(_, b, i)| (BlockId::new(b as usize), i as usize))
                .collect();
            let checks: Vec<CheckId> = self
                .adaptive
                .site_counts
                .explicit_checks
                .keys()
                .filter(|(f, _)| *f as usize == fi)
                .map(|&(_, id)| CheckId(id))
                .collect();
            if let Err(mut missing) = reconcile(&refs, &traps, &checks) {
                failures.append(&mut missing);
            }
            // The recovered-trap conservation law: every recovered trap
            // resolves to site provenance in some tier, and no site
            // recovers more traps than it took.
            let recovered: Vec<(BlockId, usize, u64)> = self
                .adaptive
                .site_counts
                .recoveries
                .iter()
                .filter(|((f, _, _), _)| *f as usize == fi)
                .map(|(&(_, b, i), &n)| (BlockId::new(b as usize), i as usize, n))
                .collect();
            let trap_counts: Vec<(BlockId, usize, u64)> = self
                .adaptive
                .site_counts
                .traps
                .iter()
                .filter(|((f, _, _), _)| *f as usize == fi)
                .map(|(&(_, b, i), &n)| (BlockId::new(b as usize), i as usize, n))
                .collect();
            if let Err(mut missing) = reconcile_recovered_tiered(&refs, &recovered, &trap_counts) {
                failures.append(&mut missing);
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures)
        }
    }

    /// Verifies the tiering converged: in every overridden function's
    /// final body, each override slot still has its access, *none* of
    /// those accesses is a marked implicit site, and the tier's provenance
    /// records the override-caused explicit checks.
    ///
    /// # Errors
    /// One line per violated condition.
    pub fn verify_convergence(&self) -> Result<(), Vec<String>> {
        use njc_observe::{CheckEvent, ExplicitCause};
        let mut failures = Vec::new();
        for (name, ov) in &self.overrides {
            if ov.is_empty() {
                continue;
            }
            let Some(fid) = self.final_module.function_by_name(name) else {
                failures.push(format!("{name}: overridden function missing"));
                continue;
            };
            let body = self.final_module.function(fid);
            let offset = |f| self.final_module.field_offset(f);
            let mut seen = ExplicitOverride::new();
            for block in body.blocks() {
                for inst in &block.insts {
                    let Some(sa) = inst.slot_access(offset) else {
                        continue;
                    };
                    let Some(off) = sa.offset else { continue };
                    if !ov.contains(off, sa.kind) {
                        continue;
                    }
                    seen.insert(off, sa.kind);
                    if inst.is_exception_site() {
                        failures.push(format!(
                            "{name}: override slot (+{off}, {:?}) still carries an implicit site",
                            sa.kind
                        ));
                    }
                }
            }
            for (off, kind) in ov.keys() {
                if !seen.contains(off, kind) {
                    failures.push(format!(
                        "{name}: override slot (+{off}, {kind:?}) has no access in the final body"
                    ));
                }
            }
            let override_events = self
                .tier_traces
                .get(name)
                .and_then(|tiers| tiers.last())
                .map(|t| {
                    t.events
                        .iter()
                        .filter(|e| {
                            matches!(
                                e,
                                CheckEvent::Phase2Explicit {
                                    cause: ExplicitCause::Override,
                                    ..
                                }
                            )
                        })
                        .count()
                })
                .unwrap_or(0);
            if override_events == 0 {
                failures.push(format!(
                    "{name}: no override-caused explicit check in the final tier's provenance"
                ));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures)
        }
    }
}

/// A completed install, recorded by the worker that performed it.
pub(crate) struct Install {
    pub(crate) index: usize,
    pub(crate) overrides: ExplicitOverride,
    pub(crate) artifact: Arc<CompiledArtifact>,
    pub(crate) event: RecompileEvent,
    /// Counter snapshot at install time — the baseline the policy
    /// subtracts so only the *new* tier's behaviour is judged.
    pub(crate) baseline: SiteCounters,
}

/// The tier-1 compile path: the service's workers and fixpoint passes
/// compile any tenant's function through it, against the shared sharded
/// cache.
pub(crate) struct TierCompiler<'a> {
    /// The prepared (intrinsics + inlining) tier-1 base module.
    pub(crate) tier1_base: &'a Module,
    /// The tier-1 `OptConfig`.
    pub(crate) cfg1: &'a OptConfig,
    /// The tier-1 preset, for cache keying.
    pub(crate) kind: ConfigKind,
    pub(crate) platform: &'a Platform,
    pub(crate) cache: &'a ShardedCodeCache,
    /// Cache misses compile under this lock (double-checked): concurrent
    /// requests for the same key — different tenants reaching the same
    /// tiering decision at once — collapse into one compile plus hits
    /// instead of duplicate work.
    pub(crate) compile_lock: &'a Mutex<()>,
    /// [`RuntimeConfig::panic_on_compile_of`], threaded through so the
    /// injected unwind happens exactly where a real optimizer bug would:
    /// inside a compile job, past the cache lookup.
    pub(crate) panic_injection: Option<&'static str>,
}

impl TierCompiler<'_> {
    /// Compiles function `index` of the prepared tier-1 module with
    /// `overrides`, through the shared cache. Returns the artifact and
    /// whether it was a cache hit.
    pub(crate) fn compile(
        &self,
        index: usize,
        overrides: &ExplicitOverride,
    ) -> (Arc<CompiledArtifact>, bool) {
        let fid = FunctionId::new(index);
        let key = CacheKey::new(
            self.tier1_base.function(fid),
            self.kind,
            self.cfg1.compiler_trap,
            overrides,
        );
        if let Some(artifact) = self.cache.get(&key) {
            return (artifact, true);
        }
        let _serialized = self
            .compile_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Double-check: another holder may have landed this key while we
        // waited on the lock.
        if let Some(artifact) = self.cache.get(&key) {
            return (artifact, true);
        }
        if self.panic_injection == Some(self.tier1_base.function(fid).name()) {
            panic!("injected compile-job panic");
        }
        let mut func = self.tier1_base.function(fid).clone();
        let (_stats, trace) = optimize_function_overridden(
            self.tier1_base,
            self.platform,
            self.cfg1,
            &mut func,
            Some(overrides),
            true,
        );
        let artifact = Arc::new(CompiledArtifact {
            body: Arc::new(func),
            trace: trace.expect("traced compile yields a trace"),
        });
        // An admission-policy bounce is fine: the artifact still goes to
        // its requester, it just is not retained for the next asker.
        let _ = self.cache.insert(key, Arc::clone(&artifact));
        (artifact, false)
    }
}

/// The tiered execution manager: one program through the profile →
/// recompile → swap loop. It is a one-tenant [`ServiceRuntime`] — the
/// service's carrier, controller and workers run the adaptive loop — and
/// its code cache persists across runs, so repeating a run hits instead
/// of recompiling.
#[derive(Debug)]
pub struct TieredRuntime {
    module: Module,
    recovery: RecoveryPolicy,
    service: ServiceRuntime,
}

impl TieredRuntime {
    /// A runtime for `module` with [`RuntimeConfig::for_platform`] knobs.
    pub fn new(module: Module, platform: Platform) -> Self {
        let config = RuntimeConfig::for_platform(&platform);
        Self::with_config(module, platform, config)
    }

    /// A runtime with explicit tiering knobs on the default service shape
    /// ([`ServiceConfig::for_platform`]).
    pub fn with_config(module: Module, platform: Platform, config: RuntimeConfig) -> Self {
        let service = ServiceConfig {
            runtime: config,
            ..ServiceConfig::for_platform(&platform)
        };
        TieredRuntime {
            module,
            recovery: RecoveryPolicy::abort(),
            service: ServiceRuntime::with_config(platform, service),
        }
    }

    /// Attaches a trap-recovery policy: both the adaptive and the steady
    /// run dispatch it at registered implicit sites that trap. The
    /// default ([`RecoveryPolicy::abort`]) reproduces the pre-recovery
    /// behavior exactly.
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Code cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.service.cache().stats()
    }

    /// Runs `entry(args)` through the profile → recompile → swap loop,
    /// then once more (steady state) on the final bodies.
    ///
    /// # Errors
    /// Propagates VM [`Fault`]s from either run.
    pub fn run(&self, entry: &str, args: &[Value]) -> Result<RuntimeOutcome, Fault> {
        let spec = TenantSpec {
            name: entry.to_string(),
            module: self.module.clone(),
            entry: entry.to_string(),
            args: args.to_vec(),
            recovery: self.recovery.clone(),
        };
        let service = self.service.run(&[spec])?;
        let mut outcome = service
            .tenants
            .into_iter()
            .next()
            .expect("one tenant in, one outcome out")
            .outcome;
        // The only tenant owns every worker-side compile panic too.
        outcome.compile_panics = service.compile_panics;
        Ok(outcome)
    }
}

/// Inputs to the post-adaptive fixpoint pass of one tenant.
pub(crate) struct FinalizeInput<'a> {
    /// The tier-0 module the adaptive run started from.
    pub(crate) tier0: &'a Module,
    /// Tier-0 provenance for the whole module.
    pub(crate) tier0_trace: &'a ModuleTrace,
    /// The tier-1 compile path (and its shared cache).
    pub(crate) compiler: &'a TierCompiler<'a>,
    pub(crate) policy: &'a ProfilePolicy,
    /// Cumulative (tier-down capable) fixpoint vs grow-only.
    pub(crate) tier_down: bool,
    pub(crate) field_offset: &'a dyn Fn(njc_ir::FieldId) -> u64,
    /// Every mid-run install, completion order.
    pub(crate) installs: Vec<Install>,
    /// The run's complete cumulative counters.
    pub(crate) final_counters: &'a SiteCounters,
    pub(crate) final_calls: u64,
}

/// What the fixpoint pass settles on.
pub(crate) struct Finalized {
    pub(crate) final_module: Module,
    pub(crate) overrides: BTreeMap<String, ExplicitOverride>,
    pub(crate) tier_traces: BTreeMap<String, Vec<FunctionTrace>>,
    pub(crate) recompiles: Vec<RecompileEvent>,
    /// Fixpoint compiles that panicked (and were survived): the function
    /// keeps its last successfully installed body.
    pub(crate) compile_panics: u64,
}

/// The post-run fixpoint pass: the adaptive run may have ended before the
/// controller saw the final profile, and mid-run decisions depend on
/// timing. Assess once more against the *complete* counters and compile
/// anything outstanding (synchronously — no VM left to swap into, so
/// these are recorded with `mid_run: false`).
///
/// With `tier_down` the assessment is cumulative
/// ([`ProfilePolicy::assess_cumulative`]): the final override set is
/// exactly what the run's total null-arrival history justifies, dropping
/// any mid-run override whose site quiesced. Null arrivals are counted by
/// slot key (traps) and check id (caught nulls), both independent of
/// which tier's body was installed when a null arrived — so the settled
/// set is deterministic even though mid-run swap timing is not. Without
/// `tier_down` the set only grows, reproducing the original behavior.
pub(crate) fn finalize_tiers(input: FinalizeInput<'_>) -> Finalized {
    let FinalizeInput {
        tier0,
        tier0_trace,
        compiler,
        policy,
        tier_down,
        field_offset,
        installs,
        final_counters,
        final_calls,
    } = input;

    // Per-function running state: final body, overrides, tier traces.
    struct FuncState {
        body: Option<Arc<Function>>,
        overrides: ExplicitOverride,
        baseline: Option<SiteCounters>,
        traces: Vec<FunctionTrace>,
    }
    let mut state: Vec<FuncState> = (0..tier0.num_functions())
        .map(|fi| {
            let name = tier0.function(FunctionId::new(fi)).name();
            FuncState {
                body: None,
                overrides: ExplicitOverride::new(),
                baseline: None,
                traces: tier0_trace.function(name).cloned().into_iter().collect(),
            }
        })
        .collect();
    let mut recompiles = Vec::new();
    let mut compile_panics = 0u64;
    for install in installs {
        let st = &mut state[install.index];
        st.body = Some(Arc::clone(&install.artifact.body));
        st.overrides = install.overrides;
        st.baseline = Some(install.baseline);
        st.traces.push(install.artifact.trace.clone());
        recompiles.push(install.event);
    }

    for (fi, st) in state.iter_mut().enumerate() {
        let tier0_body = tier0.function(FunctionId::new(fi));
        let body: &Function = st.body.as_deref().unwrap_or(tier0_body);
        let (hot, want) = if tier_down {
            let plan = policy.assess_cumulative(
                fi,
                tier0_body,
                body,
                field_offset,
                &compiler.cfg1.compiler_trap,
                final_counters,
            );
            (plan.hot, plan.overrides)
        } else {
            let plan = policy.assess(fi, body, field_offset, final_counters, st.baseline.as_ref());
            let mut want = st.overrides.clone();
            for (off, kind) in plan.overrides.keys() {
                want.insert(off, kind);
            }
            (plan.hot, want)
        };
        if !hot {
            continue;
        }
        if st.body.is_some() && want == st.overrides {
            continue; // already at the fixpoint
        }
        let compiled =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| compiler.compile(fi, &want)));
        let (artifact, cache_hit) = match compiled {
            Ok(c) => c,
            Err(_) => {
                // The fixpoint compile panicked: keep the last installed
                // body (or tier 0) instead of wedging the whole run.
                compile_panics += 1;
                continue;
            }
        };
        recompiles.push(RecompileEvent {
            function: tier0_body.name().to_string(),
            to_config: compiler.cfg1.name.to_string(),
            overrides: want.len(),
            cache_hit,
            mid_run: false,
            at_calls: final_calls,
        });
        st.body = Some(Arc::clone(&artifact.body));
        st.overrides = want;
        st.traces.push(artifact.trace.clone());
    }

    // Final bodies → the steady-state module.
    let mut final_module = tier0.clone();
    let mut overrides = BTreeMap::new();
    let mut tier_traces = BTreeMap::new();
    for (fi, st) in state.into_iter().enumerate() {
        let fid = FunctionId::new(fi);
        let name = final_module.function(fid).name().to_string();
        if let Some(body) = &st.body {
            *final_module.function_mut(fid) = (**body).clone();
            overrides.insert(name.clone(), st.overrides);
        }
        tier_traces.insert(name, st.traces);
    }

    Finalized {
        final_module,
        overrides,
        tier_traces,
        recompiles,
        compile_panics,
    }
}
