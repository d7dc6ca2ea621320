//! Automatic waterline selection: pick the cheapest waterline whose static
//! error bound meets an accuracy target, then confirm the choice under real
//! encryption.
//!
//! ```sh
//! cargo run --example waterline_selection --release
//! ```

use fhe_reserve::analysis::{select_waterline, NoiseDomain};
use fhe_reserve::prelude::*;
use fhe_reserve::runtime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let slots = 128;
    let b = Builder::new("select", slots);
    let x = b.input("x");
    let y = b.input("y");
    let out = (x.clone() * y.clone() + x.clone().rotate(1)) * (x + y);
    let program = b.finish(vec![out]);

    let compile_at = |wl: u32| {
        let mut params = CompileParams::new(wl);
        params.output_reserve_bits = 4;
        ReserveCompiler::full()
            .compile(&program, &params)
            .ok()
            .map(|c| c.scheduled)
    };

    // Require the worst-case output error below 2^-16.
    let target = -16.0;
    let (waterline, scheduled) =
        select_waterline(15..=55, compile_at, target, &NoiseDomain::default())
            .expect("some waterline meets the target");
    let map = scheduled.validate().unwrap();
    println!(
        "selected waterline 2^{waterline} for target 2^{target}: \
         level {}, estimated {:.1} ms",
        map.max_level(),
        CostModel::paper_table3().program_cost(&scheduled.program, &map) / 1000.0
    );

    // Confirm under real encryption.
    let mut inputs = std::collections::HashMap::new();
    inputs.insert(
        "x".to_string(),
        (0..slots).map(|i| (i as f64 * 0.07).sin()).collect(),
    );
    inputs.insert(
        "y".to_string(),
        (0..slots).map(|i| (i as f64 * 0.13).cos()).collect(),
    );
    let report = runtime::execute_encrypted(
        &scheduled,
        &inputs,
        &runtime::ExecOptions {
            poly_degree: 2 * slots,
            seed: 8,
            threads: 1,
            ..runtime::ExecOptions::default()
        },
    )
    .unwrap();
    println!(
        "measured encrypted error: 2^{:.1} (target 2^{target})",
        report.max_abs_error().max(f64::MIN_POSITIVE).log2()
    );
    assert!(report.max_abs_error().log2() <= target);
    Ok(())
}
