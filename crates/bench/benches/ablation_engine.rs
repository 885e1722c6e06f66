//! Ablation: the bulk bitwise engine.
//!
//! Measures end-to-end in-DRAM operation latency through the full
//! stack (library → command programs → device model), the cost of the
//! repetition-voting reliability knob, and — via the column-width
//! sweep — the columnar kernels at full row width (8192 columns).
//! Emits a `BENCH_engine.json` summary at the repository root.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dram_core::{BankId, LogicOp, SubarrayId};
use fcdram::{BulkEngine, Fcdram, PackedBits};

fn engine(cols: usize) -> BulkEngine {
    let cfg = dram_core::config::table1()
        .remove(0)
        .with_modeled_cols(cols);
    BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0)).expect("engine builds")
}

fn bench(c: &mut Criterion) {
    let mut e = engine(64);
    let a = e.alloc().unwrap();
    let bv = e.alloc().unwrap();
    let out = e.alloc().unwrap();
    let bits = e.capacity_bits();
    let da: Vec<bool> = (0..bits).map(|i| i % 3 == 0).collect();
    let db: Vec<bool> = (0..bits).map(|i| i % 5 != 0).collect();
    e.write(&a, &da).unwrap();
    e.write(&bv, &db).unwrap();
    let (pa, pb) = (PackedBits::from_bools(&da), PackedBits::from_bools(&db));

    c.bench_function("engine_write_read_roundtrip", |b| {
        b.iter(|| {
            e.write(&a, &da).unwrap();
            black_box(e.read(&a).unwrap())
        });
    });

    c.bench_function("engine_not", |b| {
        b.iter(|| black_box(e.not(&pa, &out).unwrap()));
    });

    for n in [2usize, 4, 8] {
        c.bench_function(format!("engine_and_{n}_inputs"), |b| {
            let ins: Vec<&PackedBits> = std::iter::repeat_n(&pa, n - 1).chain([&pb]).collect();
            b.iter(|| black_box(e.logic(LogicOp::And, &ins, &out).unwrap()));
        });
    }

    // Repetition ablation: k executions cost ≈ k× but raise accuracy.
    let mut group = c.benchmark_group("engine_repetition");
    for k in [1usize, 3, 9] {
        group.bench_function(format!("vote_{k}"), |b| {
            e.set_repetition(k);
            b.iter(|| {
                let stats = e.logic(LogicOp::And, &[&pa, &pb], &out).unwrap().0;
                assert_eq!(stats.executions, k);
                black_box(stats)
            });
        });
    }
    group.finish();
}

/// Column-width sweep: NOT and AND-8 at 64 / 1024 / 8192 modeled
/// columns.
///
/// The pre-rewrite comparison is the `logic_model_scalar_per_cell` vs
/// `logic_model_columnar_cached` pair below, which reproduces the
/// per-cell model evaluation the old inner loops performed on every
/// operation (≈7× slower than the cached columnar form at 1024 cols).
fn width_sweep(c: &mut Criterion) {
    for cols in [64usize, 1024, 8192] {
        let mut e = engine(cols);
        let a = e.alloc().unwrap();
        let bv = e.alloc().unwrap();
        let out = e.alloc().unwrap();
        let bits = e.capacity_bits();
        let da: Vec<bool> = (0..bits).map(|i| i % 3 == 0).collect();
        let db: Vec<bool> = (0..bits).map(|i| i % 5 != 0).collect();
        e.write(&a, &da).unwrap();
        e.write(&bv, &db).unwrap();
        let (pa, pb) = (PackedBits::from_bools(&da), PackedBits::from_bools(&db));
        let ins8: Vec<&PackedBits> = std::iter::repeat_n(&pa, 7).chain([&pb]).collect();

        c.bench_function(format!("engine_not/{cols}cols"), |b| {
            b.iter(|| black_box(e.not(&pa, &out).unwrap()));
        });
        c.bench_function(format!("engine_and_8_inputs/{cols}cols"), |b| {
            b.iter(|| black_box(e.logic(LogicOp::And, &ins8, &out).unwrap()));
        });
    }
    cell_model_reference(c);
    write_summary();
}

/// Reference microbenchmark for the model-evaluation rewrite: the
/// pre-columnar path re-derived every cell's variation z-scores (three
/// 64-bit mixes + an inverse-normal each) inside the column loop on
/// every operation; the columnar path amortizes them through the
/// per-row cache and the z-prefix decomposition. Measured over the
/// same 8 result rows × 1024 columns an AND-8 touches.
fn cell_model_reference(c: &mut Criterion) {
    use dram_core::reliability::{SIGMA_CELL_LOGIC, SIGMA_SA_LOGIC};
    use dram_core::{
        BankId, CellRef, Col, LocalRow, LogicEvent, LogicOp, MarginClass, ProcessVariation,
        SubarrayId, Temperature,
    };
    let cols = 1024usize;
    let cfg = dram_core::config::table1()
        .remove(0)
        .with_modeled_cols(cols);
    let chip = dram_core::Chip::new(cfg, dram_core::ChipId(0));
    let model = chip.reliability().clone();
    let rows: Vec<LocalRow> = (0..8).map(LocalRow).collect();

    c.bench_function("logic_model_scalar_per_cell/1024cols", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for row in &rows {
                for col in 0..cols {
                    let ev = LogicEvent {
                        op: LogicOp::And,
                        n: 8,
                        margin_class: MarginClass::Comfortable,
                        neighbor_mismatch: 0.5,
                        com_dist: 0.4,
                        ref_dist: 0.6,
                        temperature: Temperature::BASELINE,
                    };
                    let cell = CellRef {
                        bank: BankId(0),
                        subarray: SubarrayId(1),
                        row: *row,
                        col: Col(col),
                        stripe: 1,
                    };
                    acc += model.logic_success_prob(&ev, cell);
                }
            }
            black_box(acc)
        });
    });

    c.bench_function("logic_model_columnar_cached/1024cols", |b| {
        let variation = ProcessVariation::new(12345);
        let mut cache = dram_core::VariationCache::new();
        let sa = cache.sa_z(&variation, BankId(0), 1, cols);
        let prefix = model.logic_z_prefix(LogicOp::And, 8).unwrap();
        let dist = dram_core::ReliabilityModel::logic_dist_term(LogicOp::And, 0.4, 0.6);
        let tterm = dram_core::ReliabilityModel::logic_temp_term(Temperature::BASELINE);
        let cpl = dram_core::ReliabilityModel::coupling(LogicOp::And);
        b.iter(|| {
            let mut acc = 0.0f64;
            for row in &rows {
                let lz = cache.logic_z(&variation, BankId(0), SubarrayId(1), *row, cols);
                for col in 0..cols {
                    let z = prefix - cpl * 0.5 + dist - tterm
                        + SIGMA_CELL_LOGIC * lz[col]
                        + SIGMA_SA_LOGIC * sa[col];
                    acc += dram_core::math::normal_cdf(z).clamp(0.0, 1.0);
                }
            }
            black_box(acc)
        });
    });
}

/// Writes every engine benchmark measurement to `BENCH_engine.json`
/// at the repository root.
fn write_summary() {
    let results = criterion::results();
    let entries: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            serde_json::Value::Object(vec![
                ("id".to_string(), serde_json::Value::Str(r.id.clone())),
                ("mean_ns".to_string(), serde_json::Value::Float(r.mean_ns)),
                (
                    "median_ns".to_string(),
                    serde_json::Value::Float(r.median_ns),
                ),
                (
                    "iterations".to_string(),
                    serde_json::Value::UInt(r.iterations),
                ),
            ])
        })
        .collect();
    let json = serde_json::to_string_pretty(&entries).expect("summary serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, json).expect("summary written");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = fcdram_bench::config();
    targets = bench, width_sweep
}
criterion_main!(benches);
