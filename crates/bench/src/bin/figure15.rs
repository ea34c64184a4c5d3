//! Regenerates **Figure 15**: frequency versus the number of pattern
//! bytes in the grammar on the Virtex-4 LX200, with each point
//! annotated by its LUTs/byte (as in the paper's scatter labels).
//!
//! Run: `cargo run -p cfg-bench --bin figure15 --release`

#![forbid(unsafe_code)]

use cfg_bench::{calibrated_devices, row_for, synthesize_all};
use cfg_fpga::report::{points_to_json, render_figure15, Figure15Point};

fn main() {
    let points = synthesize_all();
    let (v4, _ve) = calibrated_devices(&points);

    let series: Vec<Figure15Point> = points
        .iter()
        .map(|p| {
            let row = row_for(p, &v4);
            Figure15Point {
                pattern_bytes: row.pattern_bytes,
                freq_mhz: row.freq_mhz,
                luts_per_byte: row.luts_per_byte,
            }
        })
        .collect();

    println!("{}", render_figure15(&series));
    println!("paper series: (300, 533, 1.01) (600, 497, 0.88) (1200, 445, 0.81) (2100, 318, 0.79) (3000, 316, 0.77)");

    // Machine-readable copy for downstream analysis.
    if std::fs::create_dir_all("bench_results").is_ok() {
        let _ = std::fs::write("bench_results/figure15.json", points_to_json(&series));
        eprintln!("wrote bench_results/figure15.json");
    }

    // Monotone-decrease shape check (the paper's curve falls overall).
    let falling = series.windows(2).all(|w| w[1].freq_mhz <= w[0].freq_mhz + 1.0);
    println!(
        "shape check: frequency non-increasing with size: {}",
        if falling { "OK" } else { "FAIL" }
    );
}
