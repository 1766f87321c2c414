//! Input from outside the process never panics the program.
//!
//! Recorded trace files (`Trace::read_from`) and `--fault` specs
//! (`FaultPlan::parse`) arrive from disk and the command line. Each is
//! fed SimRng-derived garbage here — random bytes, every truncation and
//! every single-bit flip of a valid trace, random fault strings — and
//! must return `Ok` or a typed error. A panic fails the test.

use line_distillation::experiments::exec::FaultPlan;
use line_distillation::mem::rng::{stable_id, SimRng};
use line_distillation::mem::{Access, Addr, Trace};

/// A trace of every access kind with random fields.
fn sample_trace(rng: &mut SimRng) -> Trace {
    let accesses = (0..24)
        .map(|_| {
            let addr = Addr::new(rng.next_u64());
            let a = match rng.range(3) {
                0 => Access::load(addr, 1 << rng.range(4)),
                1 => Access::store(addr, 1 << rng.range(4)),
                _ => Access::ifetch(addr),
            };
            a.with_insts(rng.next_u64() as u32)
                .with_pc(Addr::new(rng.next_u64()))
        })
        .collect();
    Trace::from_accesses("gcc-166 · seed 7", accesses)
}

fn encode(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    trace
        .write_to(&mut buf)
        .expect("writing to a Vec cannot fail");
    buf
}

#[test]
fn clean_trace_round_trips_identically() {
    let mut rng = SimRng::new(stable_id("outside-input-roundtrip"));
    for _ in 0..20 {
        let trace = sample_trace(&mut rng);
        let back = Trace::read_from(encode(&trace).as_slice()).expect("clean bytes read back");
        assert_eq!(back.name(), trace.name());
        assert_eq!(back.accesses(), trace.accesses());
    }
}

#[test]
fn every_truncation_of_a_trace_is_an_error() {
    let bytes = encode(&sample_trace(&mut SimRng::new(stable_id(
        "outside-input-truncate",
    ))));
    for len in 0..bytes.len() {
        assert!(
            Trace::read_from(&bytes[..len]).is_err(),
            "a {len}-byte prefix of {} bytes must not parse",
            bytes.len()
        );
    }
}

#[test]
fn single_bit_flips_of_a_trace_never_panic() {
    let clean = encode(&sample_trace(&mut SimRng::new(stable_id(
        "outside-input-bitflip",
    ))));
    let mut parsed = 0;
    for bit in 0..clean.len() * 8 {
        let mut bytes = clean.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        parsed += usize::from(Trace::read_from(bytes.as_slice()).is_ok());
    }
    // The format has no checksum: flips in addresses, PCs, instruction
    // counts and sizes still parse. Flips in the magic, the kind codes or
    // the lengths do not.
    assert!(parsed > 0 && parsed < clean.len() * 8, "{parsed} parsed");
}

#[test]
fn random_bytes_never_panic_the_trace_reader() {
    let mut rng = SimRng::new(stable_id("outside-input-random-bytes"));
    let header = encode(&Trace::new("x"));
    for case in 0..2_000 {
        let len = rng.index(96);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Half the inputs carry a valid header so the body parser is
        // reached, not only the magic check.
        if case % 2 == 0 {
            let mut with_header = header[..header.len() - 8].to_vec();
            with_header.extend_from_slice(&(rng.range(64)).to_le_bytes());
            with_header.append(&mut bytes);
            bytes = with_header;
        }
        let _ = Trace::read_from(bytes.as_slice());
    }
}

#[test]
fn random_fault_specs_never_panic() {
    const PIECES: &[&str] = &[
        "0",
        "7",
        "18446744073709551616",
        "-1",
        "4294967296",
        ":",
        ",",
        " ",
        "panic",
        "hang",
        "PANIC",
        "é",
        "\0",
        "::",
        "1:panic:0",
        "2:hang:3",
        "+3",
    ];
    let mut rng = SimRng::new(stable_id("outside-input-fault-spec"));
    let mut parsed = 0;
    for _ in 0..5_000 {
        let spec: String = (0..rng.range(8)).map(|_| *rng.choose(PIECES)).collect();
        parsed += usize::from(FaultPlan::parse(&spec).is_ok());
    }
    assert!(parsed > 0, "some random specs are well formed");
    assert_eq!(FaultPlan::parse(""), Ok(FaultPlan::none()));
    assert!(FaultPlan::parse("1:panic:0").is_err());
}
