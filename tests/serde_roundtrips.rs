//! Serialization round-trips: every data structure the workspace
//! persists (experiment tables, activation maps, program text) must
//! survive its serialization format unchanged.

use bender::{Program, ProgramBuilder};
use characterize::report::{to_json, Row, Table};
use dram_core::{BankId, Bit, GlobalRow, SpeedBin, SubarrayId};
use fcdram::{ActivationMap, Fcdram};

fn discover_map() -> ActivationMap {
    let cfg = dram_core::config::table1().remove(0).with_modeled_cols(32);
    let mut fc = Fcdram::new(cfg);
    fc.discover(BankId(0), (SubarrayId(0), SubarrayId(1)), 4096)
        .unwrap()
}

#[test]
fn activation_map_round_trips_through_json() {
    let map = discover_map();
    let json = serde_json::to_string(&map).unwrap();
    let back: ActivationMap = serde_json::from_str(&json).unwrap();
    assert_eq!(back.shapes(), map.shapes());
    // Coverage fractions may differ by float-formatting ULPs.
    assert!((back.total_coverage() - map.total_coverage()).abs() < 1e-9);
    for (f, l) in map.shapes() {
        assert_eq!(back.find(f, l), map.find(f, l), "{f}:{l}");
    }
}

#[test]
fn module_config_round_trips_through_json() {
    for cfg in dram_core::config::full_fleet() {
        let json = serde_json::to_string(&cfg).unwrap();
        let back: dram_core::ModuleConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}

#[test]
fn op_outcome_round_trips_through_json() {
    let cfg = dram_core::config::table1().remove(0).with_modeled_cols(16);
    let mut chip = dram_core::Chip::new(cfg, dram_core::ChipId(0));
    chip.write_row_direct(BankId(0), GlobalRow(0), &[Bit::One; 16])
        .unwrap();
    for l in 0..64usize {
        let out = chip
            .multi_act_copy(BankId(0), GlobalRow(0), GlobalRow(512 + l))
            .unwrap();
        chip.precharge(BankId(0)).unwrap();
        if !out.p.is_empty() {
            let json = serde_json::to_string(&out).unwrap();
            let back: dram_core::OpOutcome = serde_json::from_str(&json).unwrap();
            // Structural equality; probabilities may differ by a ULP
            // through the text format.
            assert_eq!(back.kind, out.kind);
            assert_eq!(back.rows, out.rows);
            assert_eq!(back.intended, out.intended);
            assert_eq!(back.p.len(), out.p.len());
            for (a, b) in back.p.iter().zip(&out.p) {
                assert!((a - b).abs() < 1e-12);
            }
            return;
        }
    }
    panic!("no outcome with cells found");
}

#[test]
fn experiment_tables_round_trip_through_json() {
    let mut t = Table::new("x", "title", "label", vec!["a".into(), "b".into()]);
    t.push_row(Row::new("r1", vec![1.0, 2.0]));
    t.push_row(Row::opt("r2", vec![None, Some(3.5)]));
    t.push_row(
        Row::new("r3", vec![4.0, 5.0]).with_origin(characterize::RowOrigin {
            module: "hynix-4Gb-M-2666-#0".into(),
            chip: 3,
            manufacturer: "SK Hynix".into(),
        }),
    );
    t.note("note with unicode — ≤1.66%");
    let json = to_json(std::slice::from_ref(&t));
    let back: Vec<Table> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, vec![t]);
}

#[test]
fn rows_without_origin_field_still_deserialize() {
    // JSON written before chip attribution existed has no `origin`
    // key; archived `--json` output must keep loading (absent Option
    // fields deserialize as None, as in real serde).
    let legacy = r#"{"label": "r1", "values": [1.0, null]}"#;
    let row: Row = serde_json::from_str(legacy).unwrap();
    assert_eq!(row, Row::opt("r1", vec![Some(1.0), None]));
    assert!(row.origin.is_none());
}

#[test]
fn program_round_trips_through_json_and_asm() {
    let mut b = ProgramBuilder::new(SpeedBin::Mt2400);
    b.seq_write_row(BankId(1), GlobalRow(9), vec![Bit::One; 8]);
    b.seq_charge_share(BankId(1), GlobalRow(9), GlobalRow(521));
    b.seq_read_row(BankId(1), GlobalRow(521));
    let p = b.build();
    // JSON.
    let json = serde_json::to_string(&p).unwrap();
    let back: Program = serde_json::from_str(&json).unwrap();
    assert_eq!(back, p);
    // Assembly text.
    let text = bender::asm::format(&p);
    let back = bender::asm::parse(&text, SpeedBin::Mt2400).unwrap();
    assert_eq!(back, p);
}

#[test]
fn energy_costs_round_trip_through_json() {
    let t = dram_core::TimingParams::default();
    let e = dram_core::EnergyParams::default();
    let cost = dram_core::OpCost::in_dram_bitwise(&t, &e, SpeedBin::Mt2666, 8192, 8);
    let json = serde_json::to_string(&cost).unwrap();
    let back: dram_core::OpCost = serde_json::from_str(&json).unwrap();
    assert_eq!(back, cost);
}

#[test]
fn results_json_artifact_is_loadable() {
    // The committed standard-run artifact must stay parseable.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results_standard.json");
    if let Ok(text) = std::fs::read_to_string(path) {
        let tables: Vec<Table> = serde_json::from_str(&text).unwrap();
        assert!(tables.len() >= 17, "{} tables", tables.len());
        assert!(tables.iter().any(|t| t.id == "fig7"));
        assert!(tables.iter().any(|t| t.id == "capabilities"));
        assert!(tables.iter().any(|t| t.id == "arith"));
    }
}

#[test]
fn simdram_trace_round_trips_through_json() {
    let mut trace = simdram::OpTrace::new();
    trace.record(simdram::TraceEntry {
        op: simdram::NativeOp::Not,
        executions: 3,
        predicted_success: 0.97,
    });
    trace.record(simdram::TraceEntry {
        op: simdram::NativeOp::Logic(simdram::LogicOp::Nand, 16),
        executions: 1,
        predicted_success: 0.94,
    });
    trace.record(simdram::TraceEntry {
        op: simdram::NativeOp::Maj,
        executions: 5,
        predicted_success: 0.9,
    });
    let json = serde_json::to_string(&trace).unwrap();
    let back: simdram::OpTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(back, trace);
}

#[test]
fn simdram_cost_summary_round_trips_through_json() {
    let model = simdram::CostModel::new(SpeedBin::Mt2666, 1024);
    let mut trace = simdram::OpTrace::new();
    trace.record(simdram::TraceEntry {
        op: simdram::NativeOp::Logic(simdram::LogicOp::And, 4),
        executions: 1,
        predicted_success: 0.95,
    });
    let summary = simdram::CostSummary::new(&model, &trace, 1024, 4, 1);
    let json = serde_json::to_string(&summary).unwrap();
    let back: simdram::CostSummary = serde_json::from_str(&json).unwrap();
    assert_eq!(back.native_ops, summary.native_ops);
    assert!((back.in_dram.energy_pj - summary.in_dram.energy_pj).abs() < 1e-9);
    assert!((back.energy_ratio() - summary.energy_ratio()).abs() < 1e-12);
}
