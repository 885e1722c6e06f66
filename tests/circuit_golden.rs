//! Golden pin of the synthesized `simdram` circuits.
//!
//! Circuits call the substrate gates one at a time with rows only; on
//! DRAM the substrate hands each gate the values it tracks for those
//! rows, so no operand is read back. `predicted_success_golden.rs` pins
//! the prepared program walk; this suite pins the circuits. Each
//! circuit runs on `SimdVm<DramSubstrate>` at 1024 modeled columns, at
//! repetition 1 and 3, on Table-1 chip 0 and on the
//! fan-in-8 part `hynix-8Gb-M-2666-#0`, and on `HostSubstrate` at the
//! same lane count. Per circuit the test pins a digest of its results
//! and a digest of every trace entry it records (op, fan-in,
//! `executions`, `predicted_success` as `to_bits`). A digest that moves
//! is a re-baseline to explain, not an edit to make here.

use dram_core::math::mix2;
use dram_core::{BankId, LogicOp, SubarrayId};
use fcdram::{BulkEngine, Fcdram};
use simdram::{
    AdderKind, BitRow, DramSubstrate, HostSubstrate, NativeOp, SimdVm, Substrate, UintVec,
};

const COLS: usize = 1024;

fn vm(chip: &str, repetition: usize) -> SimdVm<DramSubstrate> {
    let cfg = dram_core::config::table1()
        .into_iter()
        .find(|m| m.name == chip)
        .expect("a Table-1 part")
        .with_modeled_cols(COLS);
    let engine = BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0)).unwrap();
    let mut sub = DramSubstrate::new(engine);
    sub.set_repetition(repetition);
    SimdVm::new(sub).unwrap()
}

fn op_code(op: NativeOp) -> u64 {
    match op {
        NativeOp::Not => 1,
        NativeOp::Logic(op, n) => {
            let code = LogicOp::ALL.iter().position(|o| *o == op).unwrap() as u64;
            0x100 | (code << 5) | u64::from(n)
        }
        NativeOp::Maj => 2,
        NativeOp::Copy => 3,
        NativeOp::Fill => 4,
        NativeOp::HostWrite => 5,
        NativeOp::HostRead => 6,
    }
}

/// Every trace entry since the last clear: op, fan-in, executions and
/// `predicted_success` bits.
fn trace_digest<S: Substrate>(vm: &SimdVm<S>) -> u64 {
    let entries = vm.trace().entries();
    entries.iter().fold(entries.len() as u64, |h, e| {
        let h = mix2(h, op_code(e.op));
        let h = mix2(h, e.executions as u64);
        mix2(h, e.predicted_success.to_bits())
    })
}

fn fold_u64s(h: u64, values: &[u64]) -> u64 {
    values
        .iter()
        .fold(mix2(h, values.len() as u64), |h, v| mix2(h, *v))
}

fn fold_bools(h: u64, bits: &[bool]) -> u64 {
    bits.iter()
        .fold(mix2(h, bits.len() as u64), |h, b| mix2(h, u64::from(*b)))
}

fn mask<S: Substrate>(vm: &mut SimdVm<S>, seed: u64) -> BitRow {
    let lanes = vm.lanes();
    let bits: Vec<bool> = (0..lanes).map(|i| mix2(seed, i as u64) & 1 == 1).collect();
    let r = vm.alloc_row().unwrap();
    vm.write_mask(r, &bits).unwrap();
    r
}

fn uint<S: Substrate>(vm: &mut SimdVm<S>, width: usize, seed: u64) -> UintVec {
    let lanes = vm.lanes();
    let values: Vec<u64> = (0..lanes)
        .map(|i| mix2(seed, i as u64) & ((1 << width) - 1))
        .collect();
    let v = vm.alloc_uint(width).unwrap();
    vm.write_u64(&v, &values).unwrap();
    v
}

/// Reads `r` back, folds it into `h` and frees it.
fn take_row<S: Substrate>(vm: &mut SimdVm<S>, h: u64, r: BitRow) -> u64 {
    let bits = vm.read_mask(r).unwrap();
    vm.release(r);
    fold_bools(h, &bits)
}

fn take_uint<S: Substrate>(vm: &mut SimdVm<S>, h: u64, v: UintVec) -> u64 {
    let values = vm.read_u64(&v).unwrap();
    vm.free_uint(v);
    fold_u64s(h, &values)
}

/// One circuit: returns the digest of its results and frees every row
/// it allocated.
type Circuit<S> = fn(&mut SimdVm<S>) -> u64;

/// The circuits, in order.
fn circuits<S: Substrate>() -> [(&'static str, Circuit<S>); 11] {
    [
        ("xor", |vm| {
            let (a, b) = (mask(vm, 1), mask(vm, 2));
            let x = vm.xor(a, b).unwrap();
            vm.release(a);
            vm.release(b);
            take_row(vm, 0, x)
        }),
        ("mux", |vm| {
            let (s, a, b) = (mask(vm, 3), mask(vm, 4), mask(vm, 5));
            let m = vm.mux(s, a, b).unwrap();
            for r in [s, a, b] {
                vm.release(r);
            }
            take_row(vm, 0, m)
        }),
        ("maj", |vm| {
            let (a, b, c) = (mask(vm, 6), mask(vm, 7), mask(vm, 8));
            let m = vm.maj(a, b, c).unwrap();
            for r in [a, b, c] {
                vm.release(r);
            }
            take_row(vm, 0, m)
        }),
        ("maj_fused", |vm| {
            let (a, b, c) = (mask(vm, 9), mask(vm, 10), mask(vm, 11));
            let m = vm.maj_fused(a, b, c).unwrap();
            for r in [a, b, c] {
                vm.release(r);
            }
            take_row(vm, 0, m)
        }),
        ("add8_fc", |vm| {
            vm.set_adder(AdderKind::FcGates);
            let (a, b) = (uint(vm, 8, 12), uint(vm, 8, 13));
            let s = vm.add(&a, &b).unwrap();
            vm.free_uint(a);
            vm.free_uint(b);
            take_uint(vm, 0, s)
        }),
        ("add8_fused", |vm| {
            vm.set_adder(AdderKind::FusedMaj);
            let (a, b) = (uint(vm, 8, 14), uint(vm, 8, 15));
            let s = vm.add(&a, &b).unwrap();
            vm.set_adder(AdderKind::FcGates);
            vm.free_uint(a);
            vm.free_uint(b);
            take_uint(vm, 0, s)
        }),
        ("mul4x4", |vm| {
            let (a, b) = (uint(vm, 4, 16), uint(vm, 4, 17));
            let p = vm.mul(&a, &b).unwrap();
            vm.free_uint(a);
            vm.free_uint(b);
            take_uint(vm, 0, p)
        }),
        ("hamming", |vm| {
            let (a, b) = (uint(vm, 8, 18), uint(vm, 8, 19));
            let d = vm.hamming(&a, &b).unwrap();
            vm.free_uint(a);
            vm.free_uint(b);
            take_uint(vm, 0, d)
        }),
        ("and20", |vm| {
            // 20 inputs reduce over more than one level on both parts, and
            // a one-input AND is a copy.
            let ins: Vec<BitRow> = (0..20).map(|i| mask(vm, 100 + i)).collect();
            let wide = vm.bit_and(&ins).unwrap();
            let single = vm.bit_and(&ins[..1]).unwrap();
            for r in ins {
                vm.release(r);
            }
            let h = take_row(vm, 0, wide);
            take_row(vm, h, single)
        }),
        ("shift", |vm| {
            let a = uint(vm, 8, 20);
            let l = vm.shl(&a, 3).unwrap();
            let r = vm.shr(&a, 2).unwrap();
            vm.free_uint(a);
            let h = take_uint(vm, 0, l);
            take_uint(vm, h, r)
        }),
        ("mask_io", |vm| {
            let a = mask(vm, 21);
            take_row(vm, 0, a)
        }),
    ]
}

/// `[result digest, trace digest, trace length]` per circuit on `vm`.
fn observe_vm<S: Substrate>(vm: &mut SimdVm<S>) -> Vec<[u64; 3]> {
    circuits::<S>()
        .iter()
        .map(|(_, circuit)| {
            vm.clear_trace();
            let result = circuit(vm);
            [result, trace_digest(vm), vm.trace().len() as u64]
        })
        .collect()
}

/// `[result digest, trace digest, trace length]` per circuit, for
/// each `(chip, repetition)` configuration in order.
fn observe() -> Vec<Vec<[u64; 3]>> {
    let mut out = Vec::new();
    for chip in [
        dram_core::config::table1().remove(0).name,
        "hynix-8Gb-M-2666-#0".to_string(),
    ] {
        for repetition in [1, 3] {
            out.push(observe_vm(&mut vm(&chip, repetition)));
        }
    }
    out
}

/// Captured before the substrate gates took optional operand values;
/// the `hamming`, `and20` and `shift` rows were re-captured when copies
/// stopped issuing RowClone on pairs that raise more than two rows (those
/// circuits copy between such pairs, which now take the host write).
#[rustfmt::skip]
const GOLDEN: &[&[[u64; 3]]] = &[
    &[
        [0xfcb7f4b09e5f18c9, 0x91421370e536c4bf, 0x0000000000000006],
        [0xb42edd46224795e4, 0x5da30299e5861e0d, 0x0000000000000008],
        [0x804424b32cc56f56, 0x11213fbca16d871a, 0x0000000000000008],
        [0x6fcbc3756c8edc7a, 0x02a63f59056153a0, 0x0000000000000005],
        [0x78ff98cf9ca082bd, 0xab112cc51515e16f, 0x0000000000000070],
        [0x52c3775a23bbb4c5, 0x49d384ad0e084831, 0x0000000000000060],
        [0xa26c388388bec277, 0x38fce71849355915, 0x0000000000000150],
        [0xca71ee294eaae797, 0x0cdd3e4ba9189599, 0x00000000000000a7],
        [0xc2e0e54fb1fd15cb, 0x9870a0d845dc46a5, 0x000000000000001a],
        [0x8f1a33e207f3966b, 0xb3b5f416e0fb6f8c, 0x0000000000000030],
        [0xf04c10f132fff9d1, 0x82622515da682178, 0x0000000000000002],
    ],
    &[
        [0xd20b955256089331, 0x7f27785c887bee5a, 0x0000000000000006],
        [0x7761c00f902041d4, 0x7df572f35f0f37e7, 0x0000000000000008],
        [0x722e6421bc7d79e2, 0x57f12e1afc836cf3, 0x0000000000000008],
        [0x8a89b3c5fd516905, 0xfa1d464c549c336f, 0x0000000000000005],
        [0xee80920dc4365df8, 0x7600227009d44fc0, 0x0000000000000070],
        [0xa55c3b827f993ca2, 0x8fcc53cc88c8987f, 0x0000000000000060],
        [0xa8a6ce3569875be9, 0x88ed339f6d70a171, 0x0000000000000150],
        [0x92d2d631ff62e465, 0x495b607d222c0874, 0x00000000000000a7],
        [0x9d0937ea1b56ed44, 0x174c9f8e3dcb3abd, 0x000000000000001a],
        [0x8f1a33e207f3966b, 0xb3b5f416e0fb6f8c, 0x0000000000000030],
        [0xf04c10f132fff9d1, 0x82622515da682178, 0x0000000000000002],
    ],
    &[
        [0x36031558d4995db1, 0x5828712c498ab7f3, 0x0000000000000006],
        [0x2901f5d6c17c6eef, 0x298653a41f5de953, 0x0000000000000008],
        [0xa23daf87eb0182ff, 0x373f6137d3136d23, 0x0000000000000008],
        [0xdeeea2db3cb6ac12, 0x8487d1ffc1183f88, 0x0000000000000005],
        [0xc31f6375a507ed1b, 0x6752c3edf0d3b823, 0x0000000000000070],
        [0xcd33cd64e17ac48a, 0x61a463991f19d91c, 0x0000000000000060],
        [0xc932b0fa90df852d, 0xde6f544bd3234854, 0x0000000000000150],
        [0x3b1b40f55aa921ef, 0x93589dd1b4f29eb4, 0x00000000000000a7],
        [0x8e71f13c73f494a1, 0x10cbe110f2a3d2d5, 0x000000000000001b],
        [0x8f1a33e207f3966b, 0xade578c34f365411, 0x0000000000000030],
        [0xf04c10f132fff9d1, 0x82622515da682178, 0x0000000000000002],
    ],
    &[
        [0xb6250c5edaba79e4, 0x943aa821331e544c, 0x0000000000000006],
        [0x4edead22604e89d0, 0xdc65ecc752c4d89e, 0x0000000000000008],
        [0xc6d803487c586f4c, 0x838272f5946121c2, 0x0000000000000008],
        [0xddffc6e9934a0629, 0x4aa33a27f2ea3335, 0x0000000000000005],
        [0x0497d715a2dd12b3, 0xe96ef108c3013531, 0x0000000000000070],
        [0xb0ddbdb0bae7692a, 0x10d4ee1e816f0a26, 0x0000000000000060],
        [0xae3dbd83f1608312, 0x127ac4671461ac81, 0x0000000000000150],
        [0x3820cae764577b58, 0xd4c7f426b62b421c, 0x00000000000000a7],
        [0x8e71f13c73f494a1, 0x57bfff7abc190d0f, 0x000000000000001b],
        [0x8f1a33e207f3966b, 0xade578c34f365411, 0x0000000000000030],
        [0xf04c10f132fff9d1, 0x82622515da682178, 0x0000000000000002],
    ],
];

/// The same circuits on the exact host substrate at the DRAM runs'
/// lane count. Host results are a pure function of the circuits, so
/// this pin never moves with the device model.
#[rustfmt::skip]
const HOST_GOLDEN: &[&[[u64; 3]]] = &[
    &[
        [0x573f4cd5f148485d, 0x0c68a04ff2d35f75, 0x0000000000000006],
        [0x7551a3a656426e40, 0xa1a10abac1acde42, 0x0000000000000008],
        [0x6b1b4aa591d66480, 0x1e8d34d5fe22b035, 0x0000000000000008],
        [0xdccb561d3fd66d6b, 0x1e8d34d5fe22b035, 0x0000000000000008],
        [0xae222df843537e5f, 0x7cf555880d2df880, 0x0000000000000070],
        [0xe96b9806e8d728be, 0x407e83a6d43f0ec5, 0x0000000000000078],
        [0xfec201587a2b5527, 0x77fdb0e1fc37fc89, 0x0000000000000150],
        [0x6ab47a9435597517, 0x077dae869550a4b9, 0x00000000000000a7],
        [0x8e71f13c73f494a1, 0xdc0e38d62013caf7, 0x000000000000001a],
        [0x8f1a33e207f3966b, 0xad15ba5dbef1d32c, 0x0000000000000030],
        [0xf04c10f132fff9d1, 0x5c824ea21da77fb6, 0x0000000000000002],
    ],
];

/// Compares `got` against `want`, printing the observed table first
/// when `FCDRAM_PRINT_GOLDEN` is set.
fn check(label: &str, got: &[Vec<[u64; 3]>], want: &[&[[u64; 3]]]) {
    if std::env::var_os("FCDRAM_PRINT_GOLDEN").is_some() {
        println!("{label}: &[&[[u64; 3]]] = &[");
        for rows in got {
            println!("    &[");
            for row in rows {
                let row: Vec<String> = row.iter().map(|b| format!("{b:#018x}")).collect();
                println!("        [{}],", row.join(", "));
            }
            println!("    ],");
        }
        println!("];");
    }
    assert_eq!(got.len(), want.len(), "one golden block per configuration");
    let names = circuits::<HostSubstrate>().map(|(name, _)| name);
    for (c, (rows, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(rows.len(), want.len(), "configuration {c}: circuit count");
        for (name, (row, w)) in names.iter().zip(rows.iter().zip(want.iter())) {
            assert_eq!(row, w, "{label} configuration {c}, circuit {name}");
        }
    }
}

#[test]
fn dram_circuits_are_pinned() {
    check("GOLDEN", &observe(), GOLDEN);
}

#[test]
fn host_circuits_are_pinned() {
    let mut vm = SimdVm::new(HostSubstrate::new(COLS / 2, 4096)).unwrap();
    check("HOST_GOLDEN", &[observe_vm(&mut vm)], HOST_GOLDEN);
}
