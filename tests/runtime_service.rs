//! Integration properties of the multi-tenant compilation service
//! (`njc_runtime::ServiceRuntime`).
//!
//! Four acceptance properties under one roof: cross-tenant deduplication
//! must serve byte-identical code (the shared cache is a correctness
//! no-op, only an economics win); shard routing must be deterministic and
//! content-addressed for real workload bodies; a capacity-1 shared cache
//! under contention must evict without changing any tenant's results; and
//! tier-down must return a quiesced site to the implicit (free) form with
//! every tier's conservation ledger still balanced. Two more pin how a run
//! ends: a wrong entry-argument count is a structured fault, and a
//! panicking tenant VM ends the service run with its panic.

use njc_arch::{Platform, TrapModel};
use njc_core::ExplicitOverride;
use njc_ir::FunctionId;
use njc_ir::Type;
use njc_observe::FunctionTrace;
use njc_opt::ConfigKind;
use njc_runtime::{
    hot_field_workload, many_hot_workload, phase_shift_workload, CacheKey, CompiledArtifact,
    ServiceConfig, ServiceRuntime, ShardedCodeCache, TenantSpec, TieredRuntime, PHASE_NULL,
};
use njc_vm::{Fault, Value, Vm};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn fleet(name: &str, module: &njc_ir::Module, args: &[Value], n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| TenantSpec {
            name: format!("{name}-{i}"),
            module: module.clone(),
            entry: "main".to_string(),
            args: args.to_vec(),
            recovery: njc_runtime::RecoveryPolicy::abort(),
        })
        .collect()
}

/// Cross-tenant dedup is an economics win and a correctness no-op: every
/// tenant of the same workload receives byte-identical final bodies, equal
/// to what a single-tenant runtime compiles in isolation, while the fleet
/// pays strictly less fresh compile work than per-tenant isolation would.
#[test]
fn cross_tenant_dedup_serves_byte_identical_code() {
    let platform = Platform::windows_ia32();
    let module = hot_field_workload();
    let args = [Value::Int(2_000), Value::Ref(0)];
    let service = ServiceRuntime::new(platform);
    let out = service
        .run(&fleet("tenant", &module, &args, 6))
        .expect("fleet runs clean");
    out.verify().expect("every tenant reconciles and converges");

    assert!(out.dedup_hits > 0, "identical tenants must dedup");
    assert!(
        out.compiles_performed < out.isolated_compiles,
        "shared cache must beat isolation: {} fresh !< {} isolated",
        out.compiles_performed,
        out.isolated_compiles
    );

    let reference = TieredRuntime::new(module.clone(), platform)
        .run("main", &args)
        .expect("single-tenant reference runs clean");
    for t in &out.tenants {
        assert_eq!(
            t.outcome.final_module, reference.final_module,
            "{}: dedup must serve byte-identical code",
            t.name
        );
        assert_eq!(t.outcome.steady.stats, reference.steady.stats, "{}", t.name);
        assert_eq!(t.outcome.overrides, reference.overrides, "{}", t.name);
    }
}

/// Shard routing for real workload bodies: `body_hash % shards`, stable
/// across lookups and across cache instances of equal fanout, and
/// invariant under config, trap model, and override set — every compiled
/// variant of one source body co-locates, which is what makes dedup a
/// plain cache hit.
#[test]
fn shard_key_routing_is_deterministic_and_content_addressed() {
    let a = ShardedCodeCache::new(8, 4);
    let b = ShardedCodeCache::new(8, 4);
    let mut distinct = std::collections::BTreeSet::new();
    for module in [hot_field_workload(), many_hot_workload(5)] {
        for fi in 0..module.num_functions() {
            let f = module.function(FunctionId::new(fi));
            let base = CacheKey::new(
                f,
                ConfigKind::Full,
                TrapModel::windows_ia32(),
                &ExplicitOverride::new(),
            );
            let home = a.shard_of(&base);
            assert_eq!(home, (base.body_hash() % 8) as usize);
            assert_eq!(home, a.shard_of(&base), "stable across lookups");
            assert_eq!(home, b.shard_of(&base), "stable across instances");
            distinct.insert(home);

            let mut ov = ExplicitOverride::new();
            ov.insert(8, njc_ir::AccessKind::Read);
            for variant in [
                CacheKey::new(f, ConfigKind::OldNullCheck, TrapModel::windows_ia32(), &ov),
                CacheKey::new(
                    f,
                    ConfigKind::Full,
                    TrapModel::aix_ppc(),
                    &ExplicitOverride::new(),
                ),
            ] {
                assert_ne!(variant, base, "distinct key");
                assert_eq!(
                    a.shard_of(&variant),
                    home,
                    "all variants of one body co-locate"
                );
            }
        }
    }
    assert!(
        distinct.len() > 1,
        "distinct bodies must spread across shards, all landed in {distinct:?}"
    );
}

/// Capacity-1 shared cache under real contention. Driven directly with the
/// single-tenant compile pattern (miss, then insert) the distinct hot
/// bodies of `many_hot_workload` evict each other deterministically; run
/// as a service fleet over the same tiny cache, the thrash shows up in the
/// shard counters but every tenant's results match a roomy-cache
/// single-tenant reference byte-for-byte.
#[test]
fn capacity_one_shared_cache_evicts_without_changing_results() {
    // Direct drive: ties admit, so each new body evicts the previous one.
    let tiny = ShardedCodeCache::new(1, 1);
    let module = many_hot_workload(3);
    for fi in 0..module.num_functions() {
        let f = module.function(FunctionId::new(fi));
        let key = CacheKey::new(
            f,
            ConfigKind::Full,
            TrapModel::windows_ia32(),
            &ExplicitOverride::new(),
        );
        assert!(tiny.get(&key).is_none(), "cold miss");
        assert!(
            tiny.insert(
                key,
                Arc::new(CompiledArtifact {
                    body: Arc::new(f.clone()),
                    trace: FunctionTrace::default(),
                })
            ),
            "equal interest ties admit"
        );
    }
    let s = tiny.shard_stats()[0];
    assert_eq!(s.occupancy, 1, "capacity 1 holds one artifact");
    assert_eq!(
        s.evictions as usize,
        module.num_functions() - 1,
        "every admission past the first evicts"
    );

    // Service drive: four tenants × four distinct hot bodies through one
    // capacity-1 shard. Whatever mix of evictions and admission rejects
    // the interleaving produces, the observable results cannot move.
    let platform = Platform::windows_ia32();
    let module = many_hot_workload(4);
    let args = [Value::Int(1_200), Value::Ref(0)];
    let mut config = ServiceConfig::for_platform(&platform);
    config.shards = 1;
    config.shard_capacity = 1;
    let service = ServiceRuntime::with_config(platform, config);
    let out = service
        .run(&fleet("contender", &module, &args, 4))
        .expect("fleet runs clean");
    out.verify().expect("every tenant reconciles and converges");
    let s = &out.shards[0];
    assert!(s.occupancy <= 1, "capacity bound holds: {s:?}");
    assert!(
        s.evictions + s.admission_rejects > 0,
        "distinct bodies through capacity 1 must contend: {s:?}"
    );
    let reference = TieredRuntime::new(module.clone(), platform)
        .run("main", &args)
        .expect("reference runs clean");
    for t in &out.tenants {
        assert_eq!(t.outcome.final_module, reference.final_module, "{}", t.name);
        assert_eq!(t.outcome.steady.stats, reference.steady.stats, "{}", t.name);
    }
}

/// Tier-down: a site that traps hard in one early burst and then quiesces
/// must settle back to the implicit (free) form — zero override slots —
/// while the burst itself stays visible as steady-state traps, and every
/// installed tier's CheckId conservation ledger still balances.
#[test]
fn tier_down_returns_quiesced_site_to_implicit_with_ledger_conservation() {
    let platform = Platform::windows_ia32();
    let module = phase_shift_workload(16);
    // One 16-iteration null phase, then clean forever: 16/12000 is far
    // below the 2/1200 break-even, so the cumulative fixpoint must strip
    // the override back off.
    let args = [Value::Int(12_000), Value::Ref(0), Value::Int(PHASE_NULL)];
    let out = TieredRuntime::new(module.clone(), platform)
        .run("main", &args)
        .expect("burst workload runs clean");
    out.reconcile().expect("all traps and checks explained");
    out.verify_convergence().expect("overrides converged");
    for (name, ov) in &out.overrides {
        assert!(
            ov.is_empty(),
            "{name}: quiesced site must tier back down, kept {ov:?}"
        );
    }
    assert_eq!(
        out.steady.stats.traps_taken, 16,
        "the burst replays as implicit-site traps in the steady state"
    );
    assert_eq!(out.steady.stats.explicit_null_checks, 0, "no residue");
    // Conservation holds in every tier ever installed, including any
    // overridden intermediate tier the burst provoked mid-run.
    for (name, tiers) in &out.tier_traces {
        for (i, trace) in tiers.iter().enumerate() {
            trace
                .ledger
                .check()
                .unwrap_or_else(|e| panic!("{name} tier {i}: {e}"));
        }
    }

    // The same settlement holds for every tenant through the service.
    let service = ServiceRuntime::new(platform);
    let svc = service
        .run(&fleet("burst", &module, &args, 3))
        .expect("fleet runs clean");
    svc.verify().expect("every tenant reconciles and converges");
    for t in &svc.tenants {
        let slots: usize = t.outcome.overrides.values().map(|ov| ov.len()).sum();
        assert_eq!(
            slots, 0,
            "{}: tier-down must hold under the service",
            t.name
        );
        assert_eq!(t.outcome.final_module, out.final_module, "{}", t.name);
    }
}

/// A wrong entry-argument count is a structured fault at every entry
/// point — the VM, the tiered runtime and the service — instead of
/// surplus arguments overwriting non-parameter locals, or more arguments
/// than locals panicking the VM (and, under the service, wedging the
/// controller on a tenant that never finished).
#[test]
fn wrong_entry_arity_is_a_structured_fault_everywhere() {
    let platform = Platform::windows_ia32();
    let module = hot_field_workload();
    for got in [1, 3, 502] {
        let args = vec![Value::Int(3_000); got];
        let expected = Fault::BadEntryArgs {
            function: "main".to_string(),
            expected: 2,
            got,
        };
        assert_eq!(
            Vm::new(&module, platform).run("main", &args).unwrap_err(),
            expected
        );
        assert_eq!(
            TieredRuntime::new(module.clone(), platform)
                .run("main", &args)
                .unwrap_err(),
            expected
        );
        // On a helper thread, so a service that hangs fails the test
        // instead of the whole suite.
        let specs = fleet("arity", &module, &args, 2);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(ServiceRuntime::new(platform).run(&specs).map(|_| ()));
        });
        let out = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the service run must return");
        assert_eq!(out.unwrap_err(), expected);
    }
}

/// A tenant VM that panics ends the service run with that panic. The
/// carrier records that its tenant ended even though the VM unwound, so
/// the controller stops polling it instead of spinning forever.
#[test]
fn panicking_tenant_vm_propagates_instead_of_spinning() {
    let platform = Platform::windows_ia32();
    // An unverified module whose internal call passes more arguments
    // than the callee has locals: the VM checks arity only at entry, so
    // the call panics inside the interpreter. The callee is too large to
    // inline, so the tier-0 compile leaves the call in place.
    let mut module = njc_ir::Module::new("hostile");
    let mut b = njc_ir::FuncBuilder::new("callee", &[], Type::Int);
    let mut sum = b.iconst(0);
    for _ in 0..32 {
        let one = b.iconst(1);
        sum = b.binop(njc_ir::Op::Add, sum, one);
    }
    b.ret(Some(sum));
    let callee = module.add_function(b.finish());
    let mut b = njc_ir::FuncBuilder::new("main", &[], Type::Int);
    let x = b.iconst(7);
    let dst = b.var(Type::Int);
    b.emit(njc_ir::Inst::Call {
        dst: Some(dst),
        target: njc_ir::CallTarget::Static(callee),
        receiver: None,
        args: vec![x; 1_000],
        exception_site: false,
    });
    b.ret(Some(dst));
    module.add_function(b.finish());

    let specs = fleet("hostile", &module, &[], 2);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let run = std::panic::catch_unwind(|| ServiceRuntime::new(platform).run(&specs));
        let _ = tx.send(run.is_err());
    });
    let panicked = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the service run must end, not spin");
    assert!(panicked, "the tenant VM's panic must propagate");
}
