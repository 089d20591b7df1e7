//! # njc-runtime — tiered adaptive execution with profile-driven overrides
//!
//! The paper's null check placement is a *static* bet: implicit checks are
//! free until a null actually arrives, at which point each one costs a
//! ~1200-cycle hardware trap (IA32). This crate closes the loop the paper
//! leaves open — what to do when the bet loses at run time:
//!
//! 1. **Tier 0** compiles everything at the cheap baseline ("Old Null
//!    Check") and runs it with per-site counters on.
//! 2. A **profile policy** watches the counters through the VM's
//!    [`RuntimeHooks`] channel. A site whose traps-per-execution ratio
//!    exceeds the cost-model break-even (`explicit_null_check /
//!    trap_taken`) is hot-*trapping*; its function is recompiled at the
//!    optimizing tier with that slot in an [`ExplicitOverride`] set, so
//!    phase 2 keeps the check explicit instead of implicit.
//! 3. Recompiles run on a **background worker pool** and land in a
//!    content-addressed [`ShardedCodeCache`] (keyed on body hash,
//!    configuration, trap model, and override set, with LRU eviction),
//!    then swap in at the next call entry — heap and observation trace
//!    carry through.
//! 4. A site that *stops* trapping is **tiered back down**: its override
//!    is dropped and the implicit (free) form recompiled in, windowed
//!    mid-run and cumulatively at the post-run fixpoint.
//! 5. After the adaptive run, a deterministic **steady-state** run over
//!    the final bodies provides the reproducible measurement.
//!
//! ## Compilation as a service
//!
//! There is one adaptive loop, and it serves many VM instances:
//! [`ServiceRuntime`] runs hundreds of tenants against one
//! [`ShardedCodeCache`] (sharded by body hash, per-shard LRU +
//! frequency-based admission) fed by a [`RecompileQueue`] — priorities
//! are modeled cycles at stake, requests for the same artifact coalesce
//! into one compile installed into every waiting tenant (dedup), the
//! queue is bounded (backpressure) and ages survivors (starvation
//! freedom). [`TieredRuntime`] is the one-tenant
//! case: its `run` submits one [`TenantSpec`] to a private service.
//!
//! ```
//! use njc_arch::Platform;
//! use njc_runtime::{hot_field_workload, TieredRuntime};
//! use njc_vm::Value;
//!
//! let rt = TieredRuntime::new(hot_field_workload(), Platform::windows_ia32());
//! let out = rt.run("main", &[Value::Int(2000), Value::Ref(0)]).unwrap();
//! assert!(out.overrides["hot"].len() == 1, "the trapping slot was overridden");
//! out.reconcile().unwrap();
//! out.verify_convergence().unwrap();
//! ```
//!
//! [`ExplicitOverride`]: njc_core::ExplicitOverride

pub mod cache;
pub mod policy;
pub mod queue;
pub mod shard;
pub mod tenant;
pub mod tiered;
pub mod workload;

pub use cache::{CacheKey, CacheStats, CodeCache, CompiledArtifact};
pub use njc_recover::{RecoveryCounts, RecoveryPolicy, RecoveryStrategy};
pub use njc_vm::{ProfileSnapshot, RuntimeHooks};
pub use policy::{FunctionPlan, ProfilePolicy};
pub use queue::{
    PendingCompile, QueueConfig, QueueStats, RecompileQueue, RecompileRequest, Submitted, Waiter,
};
pub use shard::{ShardStats, ShardedCodeCache};
pub use tenant::{ServiceConfig, ServiceOutcome, ServiceRuntime, TenantOutcome, TenantSpec};
pub use tiered::{RuntimeConfig, RuntimeOutcome, TieredRuntime};
pub use workload::{
    deep_chain_workload, hot_field_workload, many_hot_workload, phase_shift_workload,
    write_hot_workload, PHASE_ALTERNATE, PHASE_CLEAN, PHASE_NULL,
};

#[cfg(test)]
mod tests {
    use super::*;
    use njc_arch::Platform;
    use njc_ir::AccessKind;
    use njc_vm::Value;

    fn run_adaptive(iters: i64) -> RuntimeOutcome {
        let rt = TieredRuntime::new(hot_field_workload(), Platform::windows_ia32());
        rt.run("main", &[Value::Int(iters), Value::Ref(0)]).unwrap()
    }

    #[test]
    fn adaptive_run_overrides_exactly_the_trapping_slot() {
        let out = run_adaptive(3000);
        let ov = &out.overrides["hot"];
        assert_eq!(ov.len(), 1, "exactly the trapping slot: {ov:?}");
        let m = hot_field_workload();
        let f4 = m.field_offset(m.field(njc_ir::ClassId::new(0), "f4").unwrap());
        assert!(ov.contains(f4, AccessKind::Read));
        out.verify_convergence().unwrap();
        out.reconcile().unwrap();
        // The loop functions both tiered up.
        assert!(out.overrides.contains_key("main"), "hot loop recompiled");
        assert!(
            out.overrides["main"].is_empty(),
            "main has no trapping site"
        );
    }

    #[test]
    fn steady_state_beats_both_static_extremes() {
        use njc_opt::ConfigKind;
        let iters = 3000;
        let out = run_adaptive(iters);
        let p = Platform::windows_ia32();
        let compile_and_run = |kind: ConfigKind| {
            let mut m = hot_field_workload();
            njc_opt::optimize_module(&mut m, &p, &kind.to_config(&p));
            njc_vm::run_module(&m, p, "main", &[Value::Int(iters), Value::Ref(0)]).unwrap()
        };
        let implicit = compile_and_run(ConfigKind::Full);
        let explicit = compile_and_run(ConfigKind::NoNullOptNoTrap);
        // All three agree observationally.
        implicit.assert_equivalent(&out.steady).unwrap();
        explicit.assert_equivalent(&out.steady).unwrap();
        implicit.assert_equivalent(&out.adaptive).unwrap();
        assert!(
            out.steady.stats.cycles < implicit.stats.cycles,
            "adaptive {} !< always-implicit {} (traps should be gone)",
            out.steady.stats.cycles,
            implicit.stats.cycles
        );
        assert!(
            out.steady.stats.cycles < explicit.stats.cycles,
            "adaptive {} !< always-explicit {}",
            out.steady.stats.cycles,
            explicit.stats.cycles
        );
        assert_eq!(out.steady.stats.traps_taken, 0, "no steady-state traps");
    }

    #[test]
    fn rerun_hits_the_code_cache_with_identical_artifacts() {
        let rt = TieredRuntime::new(hot_field_workload(), Platform::windows_ia32());
        let args = [Value::Int(2000), Value::Ref(0)];
        let first = rt.run("main", &args).unwrap();
        let second = rt.run("main", &args).unwrap();
        assert!(first.recompiles.iter().any(|r| !r.cache_hit));
        assert!(
            second.recompiles.iter().all(|r| r.cache_hit),
            "second run must be served from cache: {:?}",
            second.recompiles
        );
        assert!(second.cache.hits > 0);
        // Cache hit and fresh recompile produce byte-identical bodies.
        assert_eq!(first.final_module, second.final_module);
        assert_eq!(first.steady.stats.cycles, second.steady.stats.cycles);
        assert_eq!(first.overrides, second.overrides);
    }

    #[test]
    fn steady_state_is_deterministic_across_runtimes() {
        let a = run_adaptive(2000);
        let b = run_adaptive(2000);
        assert_eq!(a.final_module, b.final_module);
        assert_eq!(a.steady.stats, b.steady.stats);
        assert_eq!(a.steady.trace, b.steady.trace);
        assert_eq!(a.steady.heap_digest, b.steady.heap_digest);
        assert_eq!(a.overrides, b.overrides);
    }

    #[test]
    fn panicking_compile_job_does_not_wedge_the_runtime() {
        // Fault injection: every tier-1 compile of "hot" panics mid-job,
        // as a buggy optimizer pass would. Before the workers recovered
        // poisoned locks, one such panic wedged the whole runtime (the
        // installs mutex stayed poisoned and every later lock().unwrap()
        // cascaded). Now the job's unwind is caught, the function stays
        // at tier 0, and the run completes with identical observable
        // behavior.
        let platform = Platform::windows_ia32();
        let mut config = RuntimeConfig::for_platform(&platform);
        config.panic_on_compile_of = Some("hot");
        let rt = TieredRuntime::with_config(hot_field_workload(), platform, config);
        let args = [Value::Int(3000), Value::Ref(0)];
        let out = rt.run("main", &args).unwrap();
        assert!(out.compile_panics > 0, "the injected panic must fire");
        assert!(
            !out.overrides.contains_key("hot"),
            "no tier-1 install for the panicking function"
        );
        out.reconcile().unwrap();
        out.verify_convergence().unwrap();

        let clean = run_adaptive(3000);
        assert_eq!(clean.compile_panics, 0);
        clean.steady.assert_equivalent(&out.steady).unwrap();
        clean.adaptive.assert_equivalent(&out.adaptive).unwrap();
    }

    #[test]
    fn long_run_swaps_mid_flight() {
        // Enough iterations that detection + recompile + install complete
        // while the loop is still turning. (The smoke gate in runtime_bench
        // retries with larger workloads; here one generous size suffices.)
        let out = run_adaptive(200_000);
        assert!(
            out.mid_run_swaps > 0,
            "expected the tier-1 body to land mid-run"
        );
        assert!(out.recompiles.iter().any(|r| r.mid_run));
        out.reconcile().unwrap();
        out.verify_convergence().unwrap();
    }
}
