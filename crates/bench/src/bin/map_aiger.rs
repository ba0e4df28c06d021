//! Runs an external AIGER circuit (ASCII `aag` or binary `aig`, sniffed
//! from the header) through the full pipeline — the bridge for evaluating
//! the *original* ISCAS'85/MCNC netlists (export them from ABC with
//! `&write_aiger -s` or `write_aiger`) instead of this repository's
//! synthetic stand-ins. With `--verify sat` every mapped netlist is
//! SAT-proven equivalent to the synthesized AIG before being reported.
//!
//! ```text
//! cargo run --release -p bench --bin map_aiger -- path/to/circuit.aag [--patterns N] [--seed S] [--objective delay|area|energy] [--cut-k N] [--verify off|sim|sat]
//! ```

use ambipolar::engine;
use ambipolar::pipeline::{mapper_cut_db, run_job};
use bench::BenchArgs;
use gate_lib::GateFamily;

fn main() {
    let args = BenchArgs::parse("map_aiger");
    let Some(path) = args.positional.first() else {
        eprintln!(
            "usage: map_aiger <circuit.aag|circuit.aig> [--patterns N] [--seed S] \
             [--flow SCRIPT] [--objective delay|area|energy] [--cut-k N] \
             [--verify off|sim|sat] [--threads N]"
        );
        std::process::exit(2);
    };
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let aig = aig::from_aiger_auto(&bytes).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    });
    println!(
        "{path}: {} inputs, {} outputs, {} AND nodes",
        aig.input_count(),
        aig.output_count(),
        aig.and_count()
    );
    let config = args.pipeline_config();
    let flow = args.flow();
    let (synthesized, choices, report) = args.with_thread_pool(|| flow.run_with_choices(&aig));
    println!(
        "after flow \"{}\": {} AND nodes, depth {}",
        flow.script(),
        synthesized.and_count(),
        synthesized.depth()
    );
    print!("{report}");
    if let Some(choices) = &choices {
        let stats = choices.stats();
        println!(
            "choices: {} snapshots -> {} classes with choices, {} ring members (max ring {})",
            stats.snapshots, stats.classes_with_choices, stats.choices, stats.max_ring
        );
    }
    println!(
        "mapping objective: {}, cut width: {}, verification: {}, choices: {}",
        config.map.objective,
        config.map.cut_k,
        config.verify,
        if config.choices { "on" } else { "off" }
    );
    println!(
        "\n{:<22} {:>7} {:>10} {:>10} {:>10} {:>12}",
        "library", "gates", "delay", "P_D", "P_T", "EDP (J·s)"
    );
    let db = &mut mapper_cut_db(&config.map);
    for family in GateFamily::ALL {
        let library = engine::library(family);
        let r = args
            .with_thread_pool(|| {
                run_job(&synthesized, choices.as_ref(), library, &config, db, None)
            })
            .unwrap_or_else(|e| {
                eprintln!("{path}: mapping onto {family} failed: {e}");
                std::process::exit(1);
            })
            .result;
        println!(
            "{:<22} {:>7} {:>10} {:>10} {:>10} {:>12.2e}",
            family.label(),
            r.gates,
            format!("{}", r.delay),
            format!("{}", r.power.dynamic),
            format!("{}", r.total_power()),
            r.edp().value(),
        );
    }
}
