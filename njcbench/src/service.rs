//! `service_fleet`: one long-lived `ServiceRuntime`; one op submits one
//! fleet of tenants and waits for every tenant's adaptive and steady run.
//! Tenants are stamped from the six IA32 service templates with seeded
//! parameters: each fleet runs one tenant per template from a small shared
//! pool (cache hits, coalescing) and three renamed ones with bodies of their own
//! (compiles, inserts and, as a pass's working set outgrows the 8×16
//! artifact cache, evictions).

use njc_arch::Platform;
use njc_ir::Module;
use njc_runtime::{
    deep_chain_workload, hot_field_workload, many_hot_workload, phase_shift_workload,
    RecoveryPolicy, ServiceConfig, ServiceRuntime, TenantSpec, PHASE_ALTERNATE, PHASE_CLEAN,
    PHASE_NULL,
};
use njc_vm::Value;

use crate::common::{observed_vm, reference, Observed, Rng};
use crate::trace::Rec;
use crate::Workload;

/// Fleets in one pass; the op list cycles through them.
const FLEETS: usize = 16;
/// Iterations of a tenant of one hot function's work per iteration.
const BASE_ITERS: i64 = 800;
/// Parameter variants drawn per template, shared across fleets.
const VARIANTS: usize = 3;
/// Tenants per fleet whose bodies no other fleet runs: a template whose
/// functions carry a name of their own, so the content-addressed cache
/// sees new bodies. Their artifacts outgrow the cache over a pass, so
/// every pass compiles, inserts and evicts.
const FRESH: usize = 3;

struct Variant {
    name: String,
    module: Module,
    args: Vec<Value>,
    reference: Observed,
}

/// The six service templates, each with seeded parameters: phase length,
/// `many_hot` width and call-chain depth. Iterations are sized from the
/// shape — inversely to the width and the depth, which set the work of one
/// iteration — so every tenant does about the same work whatever the seed
/// drew.
fn variant(
    rng: &mut Rng,
    template: usize,
    fresh: Option<usize>,
    platform: Platform,
) -> Result<Variant, String> {
    let (name, module, mode, iters) = match template {
        0 => (
            "hot_field".to_string(),
            hot_field_workload(),
            None,
            BASE_ITERS,
        ),
        1..=3 => {
            let phase = *rng.pick(&[8i64, 12, 16, 24]);
            let (label, mode) = [
                ("alternating", PHASE_ALTERNATE),
                ("null_burst", PHASE_NULL),
                ("clean", PHASE_CLEAN),
            ][template - 1];
            (
                format!("phase_{label}_{phase}"),
                phase_shift_workload(phase),
                Some(mode),
                BASE_ITERS,
            )
        }
        4 => {
            let k = rng.range(3, 8);
            (
                format!("many_hot_{k}"),
                many_hot_workload(k),
                None,
                BASE_ITERS * 5 / k as i64,
            )
        }
        _ => {
            let depth = rng.range(3, 6);
            (
                format!("deep_chain_{depth}"),
                deep_chain_workload(depth),
                None,
                BASE_ITERS * 4 / depth as i64,
            )
        }
    };
    let (name, module) = match fresh {
        Some(n) => (format!("{name}_f{n}"), suffixed(&module, &format!("_f{n}"))),
        None => (name, module),
    };
    let mut args = vec![Value::Int(iters), Value::Ref(0)];
    args.extend(mode.map(Value::Int));
    let reference = reference(&module, platform, "main", &args)?;
    Ok(Variant {
        name: format!("{name}_x{iters}"),
        module,
        args,
        reference,
    })
}

/// `module` with `suffix` appended to every function name but `main`.
/// Calls name their callee by index, so behaviour is unchanged; the
/// printed bodies, which the cache hashes, are new.
fn suffixed(module: &Module, suffix: &str) -> Module {
    let mut m = Module::new(module.name());
    for c in 0..module.num_classes() {
        let class = module.class(njc_ir::ClassId::new(c));
        assert!(
            class.methods.is_empty(),
            "service templates have no methods"
        );
        let fields: Vec<(&str, njc_ir::Type, u64)> = class
            .fields
            .iter()
            .map(|&f| {
                let d = module.field_decl(f);
                (d.name.as_str(), d.ty, d.offset)
            })
            .collect();
        m.add_class_with_offsets(class.name.clone(), &fields);
    }
    for f in module.functions() {
        let mut f = f.clone();
        if f.name() != "main" {
            f.set_name(format!("{}{suffix}", f.name()));
        }
        m.add_function(f);
    }
    m
}

pub struct ServiceFleet {
    service: ServiceRuntime,
    variants: Vec<Variant>,
    /// Per fleet: the variant each tenant runs.
    fleets: Vec<Vec<usize>>,
    specs: Vec<Vec<TenantSpec>>,
    /// Cumulative cache counters after the previous fleet.
    last_cache: [u64; 4],
    latencies_us: Vec<u64>,
}

impl ServiceFleet {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed ^ 0x5e_4f1c);
        let platform = Platform::windows_ia32();
        let mut variants = Vec::new();
        for template in 0..6 {
            for _ in 0..VARIANTS {
                variants.push(variant(&mut rng, template, None, platform)?);
            }
        }
        let mut fleets = Vec::with_capacity(FLEETS);
        for f in 0..FLEETS {
            // One tenant per template, then the fresh ones.
            let mut fleet: Vec<usize> = (0..6)
                .map(|template| template * VARIANTS + rng.below(VARIANTS))
                .collect();
            for k in 0..FRESH {
                // Templates in turn, so every seed runs the same mix.
                let template = (f * FRESH + k) % 6;
                fleet.push(variants.len());
                variants.push(variant(&mut rng, template, Some(f * FRESH + k), platform)?);
            }
            fleets.push(fleet);
        }
        let specs = fleets
            .iter()
            .map(|fleet| {
                fleet
                    .iter()
                    .enumerate()
                    .map(|(t, &v)| TenantSpec {
                        name: format!("{}-{t}", variants[v].name),
                        module: variants[v].module.clone(),
                        entry: "main".to_string(),
                        args: variants[v].args.clone(),
                        recovery: RecoveryPolicy::abort(),
                    })
                    .collect()
            })
            .collect();
        // Workers and carriers together use every CPU the process may run on.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut config = ServiceConfig::for_platform(&platform);
        config.workers = (cpus / 2).max(1);
        config.carriers = cpus.saturating_sub(config.workers).max(1);
        Ok(ServiceFleet {
            service: ServiceRuntime::with_config(platform, config),
            variants,
            fleets,
            specs,
            last_cache: [0; 4],
            latencies_us: Vec::new(),
        })
    }
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

impl Workload for ServiceFleet {
    fn pass_len(&self) -> usize {
        self.fleets.len()
    }

    fn plant_wrong_reference(&mut self) {
        self.variants[self.fleets[0][0]].reference.plant_wrong();
    }

    fn deterministic(&self) -> &'static [&'static str] {
        &[
            "bench.model_cycles",
            "vm.steady_insts",
            "vm.insts",
            "vm.traps",
        ]
    }

    fn op(&mut self, i: usize, rec: &mut Rec) -> Result<(), String> {
        let specs = &self.specs[i];
        let service = &self.service;
        let out = rec
            .span("runtime.run", || service.run(specs))
            .map_err(|f| format!("service faulted: {f}"))?;

        let c = &out.cache;
        let cache = [
            c.hits,
            c.misses,
            c.evictions,
            out.shards.iter().map(|s| s.admission_rejects).sum(),
        ];
        let delta: Vec<f64> = cache
            .iter()
            .zip(self.last_cache)
            .map(|(now, before)| now.saturating_sub(before) as f64)
            .collect();
        self.last_cache = cache;
        rec.add("runtime.cache.hits", delta[0]);
        rec.add("runtime.cache.lookups", delta[0] + delta[1]);
        rec.add("runtime.cache.evictions", delta[2]);
        rec.add("runtime.cache.admission_rejects", delta[3]);
        rec.add("runtime.queue.submitted", out.queue.submitted as f64);
        rec.add("runtime.queue.coalesced", out.queue.coalesced as f64);
        rec.add("runtime.queue.rejected", out.queue.rejected as f64);
        rec.add("runtime.compiles", out.compiles_performed as f64);
        rec.add("runtime.isolated_compiles", out.isolated_compiles as f64);
        rec.add("runtime.dedup_hits", out.dedup_hits as f64);
        rec.add("runtime.compile_panics", out.compile_panics as f64);
        self.latencies_us.extend_from_slice(&out.latencies_us);
        for t in &out.tenants {
            let o = &t.outcome;
            rec.add("runtime.mid_run_swaps", o.mid_run_swaps as f64);
            rec.add("vm.adaptive_insts", o.adaptive.stats.insts as f64);
            rec.add("vm.steady_insts", o.steady.stats.insts as f64);
            // The steady run is deterministic; the adaptive run depends on
            // when swaps land, so it only feeds the volatile counters.
            rec.add("vm.insts", o.steady.stats.insts as f64);
            rec.add("vm.traps", o.steady.stats.traps_taken as f64);
            rec.add(
                "bench.guest_insts",
                (o.adaptive.stats.insts + o.steady.stats.insts) as f64,
            );
            rec.add("bench.model_cycles", o.steady.stats.cycles as f64);
        }

        let fleet = &self.fleets[i];
        let variants = &self.variants;
        rec.span("bench.check", || {
            if let Err(errs) = out.verify() {
                return Err(format!(
                    "{} tenant checks failed, first: {}",
                    errs.len(),
                    errs[0]
                ));
            }
            for (t, &v) in out.tenants.iter().zip(fleet) {
                let want = &variants[v].reference;
                for (run, o) in [
                    ("adaptive", &t.outcome.adaptive),
                    ("steady", &t.outcome.steady),
                ] {
                    if let Some(d) = observed_vm(o).diff(want) {
                        return Err(format!("{} {run} run: {d}", t.name));
                    }
                }
            }
            Ok(())
        })
    }

    fn layer_metrics(&self, rec: &Rec) -> Vec<(&'static str, f64)> {
        let mut lat = self.latencies_us.clone();
        lat.sort_unstable();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let compiles = rec.run_count("runtime.compiles");
        let dedup = rec.run_count("runtime.dedup_hits");
        vec![
            ("runtime.queue.wait_us_p50", percentile(&lat, 0.50)),
            ("runtime.queue.wait_us_p99", percentile(&lat, 0.99)),
            ("runtime.queue.wait_samples", lat.len() as f64),
            ("runtime.dedup_ratio", ratio(dedup, dedup + compiles)),
            ("runtime.dedup_base", dedup + compiles),
            (
                "runtime.cache.hit_ratio",
                ratio(
                    rec.run_count("runtime.cache.hits"),
                    rec.run_count("runtime.cache.lookups"),
                ),
            ),
        ]
    }
}
