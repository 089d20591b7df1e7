//! Compilation as a service: many VM tenants, one compile pipeline.
//!
//! A *tenant* is an independent VM instance — its own module, entry
//! point, arguments, heap, and profile — but compilation is a shared
//! service: every tenant's recompile demand flows through one
//! [`RecompileQueue`] into one [`ShardedCodeCache`]. Because the cache is
//! content-addressed (pristine body hash × tier config × trap model ×
//! override set), tenants running the same code at the same tiering
//! decision share a single compile:
//!
//! * requests for the same key still pending **coalesce** in the queue —
//!   one compile, fan-out install into every waiting tenant;
//! * requests arriving after the artifact landed are **cache hits** —
//!   no compile at all.
//!
//! Both are *dedup*: installs served without fresh compile work. The
//! service's economic claim — total compile work strictly below the sum
//! of per-tenant isolated compiles — is measured by
//! [`ServiceOutcome::compiles_performed`] vs
//! [`ServiceOutcome::isolated_compiles`].
//!
//! The thread topology is three fixed pools inside one scope:
//!
//! * **carriers** run tenant VMs to completion, pulling the next
//!   unstarted tenant off a shared index — hundreds of tenants multiplex
//!   onto a handful of OS threads;
//! * one **controller** round-robin polls every live tenant's profile,
//!   plans per-function override sets (tier-up *and* windowed
//!   tier-down), and submits prioritized requests — priority is the
//!   modeled cycles at stake (traps × trap cost + peak executions ×
//!   explicit-check cost).
//!   Rejected submits (backpressure) are simply retried on a later poll
//!   against fresher profile data;
//! * **workers** pop priority batches, compile through the shared cache,
//!   and install into every waiter.
//!
//! After every VM finishes, each tenant independently runs the post-run
//! fixpoint ([`finalize_tiers`]) and a deterministic steady-state
//! measurement run. Per-tenant observable behavior is *identical* to
//! running that tenant alone — the shared pipeline changes only who pays
//! for compilation, never what the program computes. Running a tenant
//! alone is exactly what [`TieredRuntime`](crate::TieredRuntime) does: it
//! is this loop with one tenant.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use njc_arch::Platform;
use njc_core::ExplicitOverride;
use njc_ir::{Function, FunctionId, Module};
use njc_observe::{ModuleTrace, RecompileEvent};
use njc_opt::{optimize_module_traced, prepare_module, OptConfig};
use njc_recover::{RecoveryCounts, RecoveryPolicy};
use njc_vm::{Fault, RuntimeHooks, Value, Vm, VmConfig};

use crate::cache::{CacheKey, CacheStats};
use crate::queue::{QueueConfig, QueueStats, RecompileQueue, RecompileRequest, Submitted, Waiter};
use crate::shard::{ShardStats, ShardedCodeCache};
use crate::tiered::{
    finalize_tiers, FinalizeInput, Finalized, Install, RuntimeConfig, RuntimeOutcome, TierCompiler,
};

/// Shape of the compilation service.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ServiceConfig {
    /// Code cache shards (clamped ≥ 1). Keys route by pristine-body hash,
    /// so every variant of one body lands in one shard.
    pub shards: usize,
    /// Artifact capacity *per shard* (clamped ≥ 1).
    pub shard_capacity: usize,
    /// Recompile queue knobs (capacity, batch size, aging).
    pub queue: QueueConfig,
    /// Compile worker threads (clamped ≥ 1).
    pub workers: usize,
    /// Carrier threads executing tenant VMs (clamped ≥ 1). Tenants beyond
    /// this count wait for a free carrier.
    pub carriers: usize,
    /// Per-tenant tiering knobs — policy, tiers, snapshot interval, and
    /// the fault-injection delays.
    pub runtime: RuntimeConfig,
}

impl ServiceConfig {
    /// Service defaults on `platform`'s cost model: 8 shards × 16
    /// artifacts, default queue, 2 workers, 4 carriers.
    pub fn for_platform(platform: &Platform) -> Self {
        ServiceConfig {
            shards: 8,
            shard_capacity: 16,
            queue: QueueConfig::default(),
            workers: 2,
            carriers: 4,
            runtime: RuntimeConfig::for_platform(platform),
        }
    }
}

/// One tenant: an independent program the service runs and compiles for.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (tenant outcomes report under it).
    pub name: String,
    /// The tenant's module, compiled at tier 0 on admission.
    pub module: Module,
    /// Entry function name.
    pub entry: String,
    /// Entry arguments.
    pub args: Vec<Value>,
    /// Per-tenant trap-recovery policy, dispatched at registered
    /// implicit sites that trap in this tenant's VM (adaptive and steady
    /// runs both). [`RecoveryPolicy::abort`] reproduces the pre-recovery
    /// behavior; tenants with different policies coexist on one service
    /// because the policy shapes execution, never compiled artifacts —
    /// cache keys are unaffected.
    pub recovery: RecoveryPolicy,
}

/// One tenant's result: the full single-tenant outcome plus its isolated
/// compile demand.
#[derive(Clone, Debug)]
pub struct TenantOutcome {
    /// The tenant's name.
    pub name: String,
    /// Exactly what [`TieredRuntime::run`] would report — adaptive run,
    /// steady run, recompiles, overrides, provenance. `outcome.cache` is
    /// cache-*wide* (the shared cache serves every tenant).
    ///
    /// [`TieredRuntime::run`]: crate::TieredRuntime::run
    pub outcome: RuntimeOutcome,
    /// Distinct artifact keys this tenant requested over its lifetime —
    /// the compiles it would have performed with a private cache.
    pub distinct_keys: usize,
}

/// What one service run produced.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// Per-tenant outcomes, in submission order.
    pub tenants: Vec<TenantOutcome>,
    /// Shared-cache counters after the run.
    pub cache: CacheStats,
    /// Per-shard counters (occupancy, hits, admission rejects).
    pub shards: Vec<ShardStats>,
    /// Queue counters (coalesced, rejected, batches, aged promotions).
    pub queue: QueueStats,
    /// Queue-to-install latencies, microseconds, completion order.
    pub latencies_us: Vec<u64>,
    /// Fresh compiles actually performed (adaptive workers + fixpoint).
    pub compiles_performed: u64,
    /// Σ over tenants of [`TenantOutcome::distinct_keys`] — the compile
    /// bill under per-tenant isolation. The service wins when
    /// `compiles_performed < isolated_compiles`.
    pub isolated_compiles: u64,
    /// Installs and settlements served without a fresh compile: queue
    /// coalescing fan-outs plus shared-cache hits, adaptive and fixpoint
    /// phases both. Counted as recompile events with `cache_hit` set.
    pub dedup_hits: u64,
    /// `std::thread::available_parallelism()` of the host, for context
    /// next to throughput numbers.
    pub host_parallelism: usize,
    /// Compile jobs that panicked mid-compile and were survived —
    /// service workers and per-tenant fixpoint passes combined. The
    /// fleet keeps running; the affected functions stay at their last
    /// installed tier.
    pub compile_panics: u64,
    /// Traps recovered per strategy, summed over every tenant (each
    /// tenant's own split lives in its `outcome.recoveries`).
    pub recoveries: RecoveryCounts,
}

impl ServiceOutcome {
    /// Reconciles and convergence-checks every tenant. Each tenant must
    /// satisfy exactly the single-tenant obligations: every trap and
    /// explicit check explained by some installed tier's provenance, and
    /// every final override slot explicit in the final body.
    ///
    /// # Errors
    /// One line per violation, prefixed with the tenant name.
    pub fn verify(&self) -> Result<(), Vec<String>> {
        let mut failures = Vec::new();
        for t in &self.tenants {
            if let Err(errs) = t.outcome.reconcile() {
                failures.extend(errs.into_iter().map(|e| format!("{}: {e}", t.name)));
            }
            if let Err(errs) = t.outcome.verify_convergence() {
                failures.extend(errs.into_iter().map(|e| format!("{}: {e}", t.name)));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures)
        }
    }
}

/// Per-tenant state shared between carriers, controller, and workers.
struct TenantState {
    spec: TenantSpec,
    tier0: Module,
    tier0_trace: ModuleTrace,
    tier1_base: Module,
    cfg1: OptConfig,
    hooks: RuntimeHooks,
    installs: Mutex<Vec<Install>>,
    /// The adaptive VM outcome, set by the carrier that ran it — an
    /// `Err` payload when the VM unwound.
    result: Mutex<Option<std::thread::Result<Result<njc_vm::Outcome, Fault>>>>,
    /// Every distinct artifact key this tenant asked for.
    keys: Mutex<BTreeSet<CacheKey>>,
}

/// The multi-tenant compilation service. One shared sharded cache and one
/// recompile queue serve every tenant; each tenant's observable behavior
/// matches a private [`TieredRuntime`](crate::TieredRuntime).
#[derive(Debug)]
pub struct ServiceRuntime {
    platform: Platform,
    config: ServiceConfig,
    cache: Arc<ShardedCodeCache>,
}

impl ServiceRuntime {
    /// A service on `platform` with [`ServiceConfig::for_platform`] knobs.
    pub fn new(platform: Platform) -> Self {
        let config = ServiceConfig::for_platform(&platform);
        Self::with_config(platform, config)
    }

    /// A service with explicit knobs.
    pub fn with_config(platform: Platform, config: ServiceConfig) -> Self {
        let cache = Arc::new(ShardedCodeCache::new(config.shards, config.shard_capacity));
        ServiceRuntime {
            platform,
            config,
            cache,
        }
    }

    /// The shared cache (persists across [`run`](Self::run) calls, so a
    /// second fleet of tenants starts warm).
    pub fn cache(&self) -> &Arc<ShardedCodeCache> {
        &self.cache
    }

    fn tier_config(&self, kind: njc_opt::ConfigKind) -> OptConfig {
        OptConfig {
            threads: 1, // workers are already the parallelism
            interproc: self.config.runtime.interproc,
            gvn: self.config.runtime.gvn,
            ..kind.to_config(&self.platform)
        }
    }

    /// Runs every tenant to completion through the shared compile
    /// pipeline, then fixpoints and steady-measures each one.
    ///
    /// # Errors
    /// The first VM [`Fault`] any tenant hit (adaptive or steady run).
    pub fn run(&self, specs: &[TenantSpec]) -> Result<ServiceOutcome, Fault> {
        let platform = self.platform;
        let rt = self.config.runtime;
        let kind1 = rt.tier1;
        let cfg0 = {
            let mut c = rt.tier0.to_config(&platform);
            c.threads = 1;
            c.interproc = rt.interproc;
            c.gvn = rt.gvn;
            c
        };

        // Admission: tier-0 compile every tenant, prepare its tier-1 base.
        let state: Vec<TenantState> = specs
            .iter()
            .map(|spec| {
                let mut tier0 = spec.module.clone();
                let (_s, tier0_trace) = optimize_module_traced(&mut tier0, &platform, &cfg0);
                let mut tier1_base = spec.module.clone();
                let cfg1 = self.tier_config(kind1);
                prepare_module(&mut tier1_base, &platform, &cfg1);
                TenantState {
                    spec: spec.clone(),
                    tier0,
                    tier0_trace,
                    tier1_base,
                    cfg1,
                    hooks: RuntimeHooks::new(rt.snapshot_interval),
                    installs: Mutex::new(Vec::new()),
                    result: Mutex::new(None),
                    keys: Mutex::new(BTreeSet::new()),
                }
            })
            .collect();

        let queue = RecompileQueue::new(self.config.queue);
        let vm_config = VmConfig {
            count_sites: true,
            ..rt.vm
        };
        let next_tenant = AtomicUsize::new(0);
        // Serializes same-key compiles across workers and fixpoint
        // threads (double-checked in `TierCompiler::compile`), so two
        // tenants deciding identically at the same instant share one
        // compile deterministically.
        let compile_lock = Mutex::new(());

        let state_ref = &state;
        let queue_ref = &queue;
        let worker_panics = AtomicU64::new(0);
        let cache_ref: &ShardedCodeCache = &self.cache;
        let lock_ref = &compile_lock;
        let install_delay = rt.install_delay_micros;

        std::thread::scope(|scope| {
            // Carriers: run tenant VMs, pulling the next unstarted tenant.
            for _ in 0..self.config.carriers.max(1) {
                let next = &next_tenant;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(t) = state_ref.get(i) else { break };
                    // A VM that unwinds never marks its hooks finished;
                    // storing the payload still ends the tenant, so the
                    // controller stops polling it.
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        Vm::new(&t.tier0, platform)
                            .with_config(vm_config)
                            .with_hooks(&t.hooks)
                            .with_recovery(&t.spec.recovery)
                            .run(&t.spec.entry, &t.spec.args)
                    }));
                    *t.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                });
            }

            // Workers: pop priority batches, compile once, install into
            // every waiter. Each job runs under `catch_unwind`: a
            // panicking compile (a buggy optimizer pass) must not take
            // the worker — or the fleet — down with it. The job was
            // already popped from the queue, so nothing stays pending;
            // every waiting tenant simply keeps its last installed tier.
            for _ in 0..self.config.workers.max(1) {
                let panics = &worker_panics;
                scope.spawn(move || {
                    while let Some(batch) = queue_ref.pop_batch() {
                        for job in batch {
                            let survived =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    let first = job.waiters[0];
                                    let ft = &state_ref[first.tenant];
                                    let compiler = TierCompiler {
                                        tier1_base: &ft.tier1_base,
                                        cfg1: &ft.cfg1,
                                        kind: kind1,
                                        platform: &platform,
                                        cache: cache_ref,
                                        compile_lock: lock_ref,
                                        panic_injection: rt.panic_on_compile_of,
                                    };
                                    let (artifact, cache_hit) =
                                        compiler.compile(first.function_index, &job.overrides);
                                    if install_delay > 0 {
                                        // Fault injection: artifact done,
                                        // install channel stalls.
                                        std::thread::sleep(Duration::from_micros(install_delay));
                                    }
                                    for (wi, w) in job.waiters.iter().enumerate() {
                                        let t = &state_ref[w.tenant];
                                        let snap = t.hooks.snapshot();
                                        t.hooks.install(
                                            w.function_index as u32,
                                            Arc::clone(&artifact.body),
                                        );
                                        let event = RecompileEvent {
                                            function: t
                                                .tier1_base
                                                .function(FunctionId::new(w.function_index))
                                                .name()
                                                .to_string(),
                                            to_config: t.cfg1.name.to_string(),
                                            overrides: job.overrides.len(),
                                            // Only the first waiter of a
                                            // fresh compile paid for it.
                                            cache_hit: cache_hit || wi > 0,
                                            mid_run: !t.hooks.is_finished(),
                                            at_calls: snap.calls,
                                        };
                                        t.installs
                                            .lock()
                                            .unwrap_or_else(PoisonError::into_inner)
                                            .push(Install {
                                                index: w.function_index,
                                                overrides: job.overrides.clone(),
                                                artifact: Arc::clone(&artifact),
                                                event,
                                                baseline: snap.counters,
                                            });
                                    }
                                    queue_ref.complete(&job);
                                }));
                            if survived.is_err() {
                                panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }

            // The controller: one thread polls every live tenant, plans,
            // submits to the shared queue.
            let mut requested: Vec<HashMap<usize, ExplicitOverride>> =
                vec![HashMap::new(); state.len()];
            let live = |t: &TenantState| {
                !t.hooks.is_finished()
                    && t.result
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .is_none()
            };
            while state.iter().any(live) {
                for (ti, t) in state.iter().enumerate() {
                    if !live(t) {
                        continue;
                    }
                    let snap = t.hooks.snapshot();
                    let installed = t.installs.lock().unwrap_or_else(PoisonError::into_inner);
                    for fi in 0..t.tier0.num_functions() {
                        let latest = installed.iter().rev().find(|i| i.index == fi);
                        let body: &Function = latest
                            .map(|i| &*i.artifact.body)
                            .unwrap_or_else(|| t.tier0.function(FunctionId::new(fi)));
                        let offset = |f| t.spec.module.field_offset(f);
                        let plan = rt.policy.assess(
                            fi,
                            body,
                            &offset,
                            &snap.counters,
                            latest.map(|i| &i.baseline),
                        );
                        if !plan.hot {
                            continue;
                        }
                        let mut want = match latest {
                            Some(inst) if rt.tier_down => rt.policy.assess_tier_down(
                                fi,
                                body,
                                &offset,
                                &inst.overrides,
                                &snap.counters,
                                Some(&inst.baseline),
                            ),
                            Some(inst) => inst.overrides.clone(),
                            None => requested[ti].get(&fi).cloned().unwrap_or_default(),
                        };
                        for (off, kind) in plan.overrides.keys() {
                            want.insert(off, kind);
                        }
                        if requested[ti].get(&fi) == Some(&want) {
                            continue;
                        }
                        // Priority: modeled cycles at stake for this
                        // function — trap bill plus execution weight.
                        let fu = fi as u32;
                        let traps: u64 = snap
                            .counters
                            .traps
                            .iter()
                            .filter(|((f, _, _), _)| *f == fu)
                            .map(|(_, c)| *c)
                            .sum();
                        let execs: u64 = snap
                            .counters
                            .blocks
                            .iter()
                            .filter(|((f, _), _)| *f == fu)
                            .map(|(_, c)| *c)
                            .max()
                            .unwrap_or(0);
                        let priority = traps
                            .saturating_mul(platform.cost.trap_taken)
                            .saturating_add(
                                execs.saturating_mul(platform.cost.explicit_null_check),
                            );
                        let key = CacheKey::new(
                            t.tier1_base.function(FunctionId::new(fi)),
                            kind1,
                            t.cfg1.compiler_trap,
                            &want,
                        );
                        let sub = queue_ref.submit(RecompileRequest {
                            key: key.clone(),
                            waiter: Waiter {
                                tenant: ti,
                                function_index: fi,
                            },
                            overrides: want.clone(),
                            priority,
                        });
                        if sub != Submitted::Rejected {
                            requested[ti].insert(fi, want);
                            t.keys
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .insert(key);
                        }
                        // Rejected: backpressure — retry on a later poll
                        // if the profile still says so.
                    }
                }
                std::thread::sleep(Duration::from_micros(rt.controller_poll_micros.max(1)));
            }
            queue.close(); // workers drain what is pending, then exit
        });

        // Every thread has stopped: a tenant whose VM unwound ends the run
        // with its panic.
        for t in &state {
            let mut result = t.result.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(Err(payload)) = result.take_if(|r| r.is_err()) {
                std::panic::resume_unwind(payload);
            }
        }

        // Fixpoint + steady measurement, per tenant, in parallel — each
        // tenant is independent; the shared cache only dedups byte-
        // identical artifacts, so order cannot change any final body.
        let fixpoint: Vec<Mutex<Option<Result<TenantOutcome, Fault>>>> =
            state.iter().map(|_| Mutex::new(None)).collect();
        let next_fix = AtomicUsize::new(0);
        let fixpoint_ref = &fixpoint;
        std::thread::scope(|scope| {
            for _ in 0..self.config.carriers.max(1) {
                let next = &next_fix;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(t) = state_ref.get(i) else { break };
                    let r = finalize_tenant(t, platform, &rt, kind1, cache_ref, lock_ref);
                    *fixpoint_ref[i]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(r);
                });
            }
        });

        let mut tenants = Vec::with_capacity(state.len());
        for (i, cell) in fixpoint.iter().enumerate() {
            let r = cell
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .unwrap_or_else(|| panic!("tenant {i} fixpoint missing"));
            tenants.push(r?);
        }

        // Every recompile event is one install/settlement; the ones with
        // `cache_hit` were served without compile work — dedup. (Fan-out
        // installs of one fresh compile record `cache_hit` for every
        // waiter past the first, so fresh work is counted exactly once.)
        let (mut compiles_performed, mut dedup_hits) = (0u64, 0u64);
        for r in tenants.iter().flat_map(|t| &t.outcome.recompiles) {
            if r.cache_hit {
                dedup_hits += 1;
            } else {
                compiles_performed += 1;
            }
        }
        let isolated_compiles = tenants.iter().map(|t| t.distinct_keys as u64).sum();
        let compile_panics = worker_panics.load(Ordering::Relaxed)
            + tenants
                .iter()
                .map(|t| t.outcome.compile_panics)
                .sum::<u64>();
        let mut recoveries = RecoveryCounts::default();
        for t in &tenants {
            recoveries.absorb(&t.outcome.recoveries);
        }
        Ok(ServiceOutcome {
            cache: self.cache.stats(),
            shards: self.cache.shard_stats(),
            queue: queue.stats(),
            latencies_us: queue.latencies_us(),
            compiles_performed,
            isolated_compiles,
            dedup_hits,
            host_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            compile_panics,
            recoveries,
            tenants,
        })
    }
}

/// One tenant's post-run pass: fixpoint the tiers against the complete
/// counters (through the shared cache — identical keys dedup across
/// tenants here too) and run the deterministic steady measurement.
fn finalize_tenant(
    t: &TenantState,
    platform: Platform,
    rt: &RuntimeConfig,
    kind1: njc_opt::ConfigKind,
    cache: &ShardedCodeCache,
    compile_lock: &Mutex<()>,
) -> Result<TenantOutcome, Fault> {
    let adaptive = t
        .result
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .and_then(Result::ok)
        .expect("carrier stored the adaptive result; unwound VMs were re-raised")?;
    let installs = std::mem::take(&mut *t.installs.lock().unwrap_or_else(PoisonError::into_inner));
    let final_snap = t.hooks.snapshot();
    let compiler = TierCompiler {
        tier1_base: &t.tier1_base,
        cfg1: &t.cfg1,
        kind: kind1,
        platform: &platform,
        cache,
        compile_lock,
        panic_injection: rt.panic_on_compile_of,
    };
    let Finalized {
        final_module,
        overrides,
        tier_traces,
        recompiles,
        compile_panics,
    } = finalize_tiers(FinalizeInput {
        tier0: &t.tier0,
        tier0_trace: &t.tier0_trace,
        compiler: &compiler,
        policy: &rt.policy,
        tier_down: rt.tier_down,
        field_offset: &|f| t.spec.module.field_offset(f),
        installs,
        final_counters: &final_snap.counters,
        final_calls: final_snap.calls,
    });

    // The fixpoint's settled artifacts also count toward the tenant's
    // isolated compile bill.
    {
        let mut keys = t.keys.lock().unwrap_or_else(PoisonError::into_inner);
        for (name, ov) in &overrides {
            if let Some(fid) = t.tier1_base.function_by_name(name) {
                keys.insert(CacheKey::new(
                    t.tier1_base.function(fid),
                    kind1,
                    t.cfg1.compiler_trap,
                    ov,
                ));
            }
        }
    }

    let steady = Vm::new(&final_module, platform)
        .with_config(rt.vm)
        .with_recovery(&t.spec.recovery)
        .run(&t.spec.entry, &t.spec.args)?;
    let distinct_keys = t.keys.lock().unwrap_or_else(PoisonError::into_inner).len();
    let mut recoveries = adaptive.stats.recoveries;
    recoveries.absorb(&steady.stats.recoveries);
    Ok(TenantOutcome {
        name: t.spec.name.clone(),
        outcome: RuntimeOutcome {
            adaptive,
            steady,
            recompiles,
            cache: cache.stats(),
            overrides,
            mid_run_swaps: t.hooks.swapped_calls(),
            final_module,
            tier0_trace: t.tier0_trace.clone(),
            tier_traces,
            compile_panics,
            recoveries,
        },
        distinct_keys,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::hot_field_workload;
    use crate::TieredRuntime;

    fn spec(name: &str, iters: i64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            module: hot_field_workload(),
            entry: "main".to_string(),
            args: vec![Value::Int(iters), Value::Ref(0)],
            recovery: RecoveryPolicy::abort(),
        }
    }

    #[test]
    fn two_identical_tenants_share_compiles_and_match_single_tenant() {
        let platform = Platform::windows_ia32();
        let service = ServiceRuntime::new(platform);
        let out = service.run(&[spec("a", 3000), spec("b", 3000)]).unwrap();
        out.verify().unwrap();

        let single = TieredRuntime::new(hot_field_workload(), platform)
            .run("main", &[Value::Int(3000), Value::Ref(0)])
            .unwrap();
        for t in &out.tenants {
            assert_eq!(
                t.outcome.final_module, single.final_module,
                "{}: service must settle on the single-tenant bodies",
                t.name
            );
            assert_eq!(t.outcome.steady.stats, single.steady.stats);
            assert_eq!(t.outcome.overrides, single.overrides);
            single.steady.assert_equivalent(&t.outcome.steady).unwrap();
        }
        assert!(
            out.compiles_performed < out.isolated_compiles,
            "shared cache must beat isolation: {} !< {}",
            out.compiles_performed,
            out.isolated_compiles
        );
    }

    #[test]
    fn fleet_survives_panicking_compile_jobs() {
        // Fault injection: every tier-1 compile of "hot" panics inside a
        // shared service worker, while holding the cross-tenant compile
        // lock. Before poison recovery, that one panic poisoned the lock
        // and every subsequent compile — for *every* tenant — panicked on
        // lock().unwrap(): one buggy job took down the whole fleet. Now
        // workers catch the unwind, poisoned locks are re-entered, and
        // every tenant completes with unchanged observable behavior
        // ("hot" simply stays at tier 0).
        let platform = Platform::windows_ia32();
        let mut config = ServiceConfig::for_platform(&platform);
        config.runtime.panic_on_compile_of = Some("hot");
        let service = ServiceRuntime::with_config(platform, config);
        let specs: Vec<TenantSpec> = (0..4).map(|i| spec(&format!("t{i}"), 3000)).collect();
        let out = service.run(&specs).unwrap();
        assert_eq!(out.tenants.len(), 4, "every tenant completed");
        assert!(out.compile_panics > 0, "the injected panic must fire");
        out.verify().unwrap();

        let clean = TieredRuntime::new(hot_field_workload(), platform)
            .run("main", &[Value::Int(3000), Value::Ref(0)])
            .unwrap();
        for t in &out.tenants {
            assert!(
                !t.outcome.overrides.contains_key("hot"),
                "{}: no tier-1 install for the panicking function",
                t.name
            );
            clean.steady.assert_equivalent(&t.outcome.steady).unwrap();
            clean
                .adaptive
                .assert_equivalent(&t.outcome.adaptive)
                .unwrap();
        }
    }

    #[test]
    fn service_reports_shard_and_queue_traffic() {
        let platform = Platform::windows_ia32();
        let mut config = ServiceConfig::for_platform(&platform);
        config.shards = 4;
        let service = ServiceRuntime::with_config(platform, config);
        let specs: Vec<TenantSpec> = (0..6).map(|i| spec(&format!("t{i}"), 2500)).collect();
        let out = service.run(&specs).unwrap();
        assert_eq!(out.tenants.len(), 6);
        assert_eq!(out.shards.len(), 4);
        assert!(out.cache.inserts > 0, "artifacts landed in the cache");
        let occupied: usize = out.shards.iter().map(|s| s.occupancy).sum();
        assert_eq!(
            occupied,
            out.cache.inserts as usize - out.cache.evictions as usize
        );
        assert!(out.host_parallelism >= 1);
        assert!(
            out.dedup_hits > 0,
            "six identical tenants must share artifacts: {:?}",
            out.queue
        );
    }
}
