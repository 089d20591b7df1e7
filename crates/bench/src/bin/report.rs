//! Regenerates every table and figure of the paper and prints the full
//! report (the content of EXPERIMENTS.md's measured sections), or one
//! artifact of it.
//!
//! ```text
//! cargo run --release -p njc-bench --bin report [output.md]
//! cargo run --release -p njc-bench --bin report -- --only table1
//! ```
//!
//! `--only` takes `table1`…`table7`, `fig8`…`fig15` or `compile_cost`;
//! an unknown name exits 1 with the list of valid names.

use std::process::ExitCode;
use std::time::Instant;

use njc_bench::{tables, Harness};

type Section = fn(&mut Harness) -> String;

/// Every section of the full report, in report order.
const SECTIONS: [(&str, Section); 15] = [
    ("table1", tables::table1),
    ("fig8", tables::fig8),
    ("table2", tables::table2),
    ("fig9", tables::fig9),
    ("fig10", tables::fig10),
    ("fig11", tables::fig11),
    ("table3", tables::table3),
    ("fig12", tables::fig12),
    ("table4", tables::table4),
    ("table5", tables::table5),
    ("table6", tables::table6),
    ("fig14", tables::fig14),
    ("table7", tables::table7),
    ("fig15", tables::fig15),
    ("compile_cost", tables::compile_cost),
];

/// Figure 13 is the chart form of Table 4's breakdown, so it has no
/// section of its own.
fn lookup(name: &str) -> Option<Section> {
    let name = if name == "fig13" { "table4" } else { name };
    SECTIONS.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

fn main() -> ExitCode {
    let mut only = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--only" => only = Some(args.next().unwrap_or_default()),
            _ => out = Some(a),
        }
    }
    if let Some(name) = only {
        let Some(section) = lookup(&name) else {
            let mut valid: Vec<&str> = SECTIONS.iter().map(|(n, _)| *n).collect();
            valid.push("fig13");
            eprintln!(
                "report: unknown artifact `{name}`; valid: {}",
                valid.join(", ")
            );
            return ExitCode::FAILURE;
        };
        print!("{}", section(&mut Harness::new()));
        return ExitCode::SUCCESS;
    }

    let t = Instant::now();
    let mut h = Harness::new();
    let sections: Vec<String> = SECTIONS.iter().map(|(_, f)| f(&mut h)).collect();
    let body = sections.join("\n");
    let report = format!(
        "# Measured reproduction report\n\nGenerated by `cargo run --release -p njc-bench --bin report` in {:.1}s.\n\n{body}",
        t.elapsed().as_secs_f64()
    );
    if let Some(path) = out {
        std::fs::write(&path, &report).expect("write report");
        eprintln!("wrote {path}");
    }
    // Shape claim 9 cites the missed-NPE count the differential harness
    // measured; sync the EXPERIMENTS.md prose from DIFF_report.json so the
    // number can never drift from the measurement again.
    match njc_bench::claims::apply_measured_claims(
        std::path::Path::new("EXPERIMENTS.md"),
        std::path::Path::new("DIFF_report.json"),
    ) {
        Ok(Some(n)) => eprintln!("claim 9: synced measured count {n} into EXPERIMENTS.md"),
        Ok(None) => {
            eprintln!("claim 9: EXPERIMENTS.md/DIFF_report.json not found or unmarked; skipped")
        }
        Err(e) => eprintln!("claim 9: substitution failed: {e}"),
    }
    print!("{report}");
    ExitCode::SUCCESS
}
