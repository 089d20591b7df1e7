//! Integration properties of the adaptive runtime (`njc-runtime`).
//!
//! Three layers under one roof: the content-addressed cache key must track
//! what the hash *means* (body content, not CFG-generation bookkeeping),
//! the code cache must stay correct under eviction pressure, and a
//! function recompiled mid-run must still reconcile every dynamic trap and
//! explicit check against the provenance of *some* installed tier — the
//! CheckId conservation ledger holding per tier.

use njc_arch::{Platform, TrapModel};
use njc_core::ExplicitOverride;
use njc_ir::{parse_function, AccessKind, BlockId, Inst};
use njc_opt::ConfigKind;
use njc_runtime::{
    hot_field_workload, CacheKey, RecoveryPolicy, ServiceConfig, ServiceRuntime, TenantSpec,
    TieredRuntime,
};
use njc_vm::Value;

fn key(f: &njc_ir::Function) -> CacheKey {
    CacheKey::new(
        f,
        ConfigKind::Full,
        TrapModel::windows_ia32(),
        &ExplicitOverride::new(),
    )
}

/// The cache key follows `Function::body_hash`: rewrites through
/// `insts_mut` (which deliberately do *not* bump the CFG generation)
/// change the key exactly when they change content, and generation bumps
/// without content changes leave it alone.
#[test]
fn cache_key_tracks_content_not_generation() {
    let src = "func f(v0: ref) -> int {\n  locals v1: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  return v1\n}";
    let mut f = parse_function(src).unwrap();
    let original = key(&f);

    // A bump of the CFG generation with no content change: same key.
    let gen_before = f.generation();
    let _ = f.block_mut(BlockId::new(0));
    assert!(
        f.generation() > gen_before,
        "block_mut bumps the generation"
    );
    assert_eq!(key(&f), original, "generation bookkeeping is not content");

    // A non-bumping rewrite through insts_mut that changes content: the
    // key must move even though the generation counter does not.
    let gen_before = f.generation();
    let removed = f.insts_mut(BlockId::new(0)).remove(0);
    assert_eq!(f.generation(), gen_before, "insts_mut does not bump");
    assert_ne!(key(&f), original, "content changed, key must change");

    // Restoring the instruction restores the key byte-for-byte.
    f.insts_mut(BlockId::new(0)).insert(0, removed);
    assert_eq!(key(&f), original, "identical content, identical key");

    // And a same-length replacement is still a content change.
    f.insts_mut(BlockId::new(0))[0] = Inst::Move {
        dst: njc_ir::VarId::new(1),
        src: njc_ir::VarId::new(0),
    };
    assert_ne!(key(&f), original);
}

/// Every key component separates artifacts: config, trap model, override
/// set (the integration-level view of what the cache may ever conflate).
#[test]
fn cache_key_separates_override_sets() {
    let f = parse_function(
        "func f(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
    )
    .unwrap();
    let mut read = ExplicitOverride::new();
    read.insert(8, AccessKind::Read);
    let mut write = ExplicitOverride::new();
    write.insert(8, AccessKind::Write);
    let k_read = CacheKey::new(&f, ConfigKind::Full, TrapModel::windows_ia32(), &read);
    let k_write = CacheKey::new(&f, ConfigKind::Full, TrapModel::windows_ia32(), &write);
    assert_ne!(key(&f), k_read, "override set is part of the identity");
    assert_ne!(k_read, k_write, "access kind is part of the slot key");
}

/// A capacity-1 cache thrashes (the workload recompiles two functions) but
/// never corrupts: final bodies and the steady-state outcome are identical
/// to a run with a roomy cache.
#[test]
fn tiny_cache_evicts_without_changing_results() {
    let platform = Platform::windows_ia32();
    let args = [Value::Int(3000), Value::Ref(0)];
    let tiny = ServiceRuntime::with_config(
        platform,
        ServiceConfig {
            shards: 1,
            shard_capacity: 1,
            ..ServiceConfig::for_platform(&platform)
        },
    );
    let tenant = [TenantSpec {
        name: "main".to_string(),
        module: hot_field_workload(),
        entry: "main".to_string(),
        args: args.to_vec(),
        recovery: RecoveryPolicy::abort(),
    }];
    let roomy = TieredRuntime::new(hot_field_workload(), platform);
    // Two runs through the tiny cache force re-misses on whatever was
    // evicted between runs.
    let tiny_first = tiny.run(&tenant).unwrap();
    let tiny_second = tiny.run(&tenant).unwrap();
    let reference = roomy.run("main", &args).unwrap();
    let stats = tiny.cache().stats();
    assert!(
        stats.evictions > 0,
        "two recompiled functions through capacity 1 must evict: {stats:?}"
    );
    for out in [&tiny_first, &tiny_second] {
        let out = &out.tenants[0].outcome;
        assert_eq!(out.final_module, reference.final_module);
        assert_eq!(out.steady.stats, reference.steady.stats);
        assert_eq!(out.overrides, reference.overrides);
    }
}

/// The acceptance property: a function recompiled *mid-run* (the swap
/// demonstrably landed while the loop was turning) still reconciles — the
/// adaptive run's traps and executed explicit CheckIds all resolve to
/// provenance records of some installed tier, and every tier's
/// conservation ledger balances.
#[test]
fn mid_run_recompiled_function_reconciles_across_tiers() {
    let platform = Platform::windows_ia32();
    // Generous enough that detection + recompile + install land mid-run.
    let out = TieredRuntime::new(hot_field_workload(), platform)
        .run("main", &[Value::Int(200_000), Value::Ref(0)])
        .unwrap();
    assert!(out.mid_run_swaps > 0, "swap must land mid-run");
    assert!(
        out.recompiles
            .iter()
            .any(|r| r.mid_run && r.function == "hot"),
        "hot must have been recompiled mid-run: {:?}",
        out.recompiles
    );
    // The adaptive run mixes tier-0 execution (traps at the implicit
    // site) with tier-1 execution (explicit checks from the override).
    assert!(out.adaptive.stats.traps_taken > 0, "tier-0 phase trapped");
    assert!(
        out.adaptive.stats.explicit_null_checks > 0,
        "tier-1 phase ran override-caused explicit checks"
    );
    out.reconcile().expect("all traps and checks explained");
    out.verify_convergence().expect("overrides converged");
    // CheckId conservation holds within every installed tier.
    for (name, tiers) in &out.tier_traces {
        for (i, trace) in tiers.iter().enumerate() {
            trace
                .ledger
                .check()
                .unwrap_or_else(|e| panic!("{name} tier {i}: {e}"));
        }
    }
}
