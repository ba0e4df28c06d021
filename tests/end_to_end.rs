//! End-to-end integration: benchmark generation → synthesis → mapping →
//! timing → power, with functional verification at every hand-off.

use ambipolar::experiments::{table1_subset, Table1Config};
use ambipolar::pipeline::{CircuitResult, PipelineConfig};
use charlib::characterize_library;
use gate_lib::GateFamily;
use techmap::{map_aig, verify_mapping, MapConfig};

/// One catalog circuit's Table-1 results at 4 K patterns, in family order.
fn row(name: &str) -> [CircuitResult; 3] {
    let pipeline = PipelineConfig {
        patterns: 4096,
        ..PipelineConfig::default()
    };
    let table = table1_subset(&Table1Config { pipeline }, Some(&[name])).expect("maps");
    table.rows.into_iter().next().expect("one row").results
}

#[test]
fn mapped_netlists_are_functionally_correct_for_all_families() {
    // SAT-proven at every hand-off: synthesis and mapping are theorems
    // here, not samples.
    for name in ["C1908", "t481", "dalu"] {
        let bench = bench_circuits::benchmark_by_name(name).expect("known benchmark");
        let synthesized = aig::synthesize(&bench.aig);
        assert_eq!(
            aig::check_equivalence(&bench.aig, &synthesized),
            Ok(aig::Equivalence::Equal),
            "{name}: synthesis broke the function"
        );
        for family in GateFamily::ALL {
            let library = characterize_library(family);
            let mapped =
                map_aig(&synthesized, &library, &MapConfig::default()).expect("mapping succeeds");
            verify_mapping(&synthesized, &mapped, &library)
                .unwrap_or_else(|e| panic!("{name}/{family}: {e}"));
        }
    }
}

#[test]
fn paper_orderings_hold_on_an_xor_rich_circuit() {
    let [gen, conv, cmos] = &row("C1355");
    // Gate count: generalized < conventional = CMOS.
    assert!(gen.gates < conv.gates);
    assert_eq!(conv.gates, cmos.gates, "same cell set, same mapper");
    // Delay: generalized < conventional < CMOS.
    assert!(gen.delay.value() < conv.delay.value());
    assert!(conv.delay.value() < cmos.delay.value());
    // Power: generalized < conventional < CMOS; static ~order apart.
    assert!(gen.total_power().value() < conv.total_power().value());
    assert!(conv.total_power().value() < cmos.total_power().value());
    assert!(cmos.power.static_sub.value() > 5.0 * conv.power.static_sub.value());
    // EDP: the compounding benefit.
    assert!(cmos.edp().value() > 8.0 * gen.edp().value());
}

#[test]
fn control_dominated_circuit_still_wins_but_less() {
    // ALU/control circuits benefit less than XOR-rich ones (the paper's
    // per-row trend).
    let edp_gain = |name: &str| {
        let [gen, conv, _] = &row(name);
        conv.edp().value() / gen.edp().value()
    };
    let ecc = edp_gain("C1908");
    let alu = edp_gain("C2670");
    assert!(ecc > 1.0 && alu > 1.0, "generalized wins everywhere");
    assert!(
        ecc > alu,
        "XOR-rich ECC ({ecc:.2}x) must out-gain the ALU ({alu:.2}x)"
    );
}

#[test]
fn static_power_well_below_dynamic_at_circuit_level() {
    // Paper §4: "static power is about two orders of magnitude less than
    // dynamic power for both types of CNTFET families and one order of
    // magnitude less for the CMOS family."
    let results = row("i8");
    for ((r, family), min_ratio) in results.iter().zip(GateFamily::ALL).zip([50.0, 50.0, 8.0]) {
        let ratio = r.power.dynamic.value() / r.power.static_sub.value();
        assert!(
            ratio > min_ratio,
            "{family}: P_D/P_S = {ratio}, expected > {min_ratio}"
        );
    }
}

#[test]
fn genlib_export_round_trips_cell_names() {
    use charlib::genlib::library_to_genlib;
    for family in GateFamily::ALL {
        let lib = characterize_library(family);
        let text = library_to_genlib(&lib);
        assert_eq!(
            text.lines().filter(|l| l.starts_with("GATE")).count(),
            lib.gates.len(),
            "{family}: genlib must list every cell"
        );
    }
}
