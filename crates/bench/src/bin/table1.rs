//! Regenerates **Table 1**: "Device utilization for XML token taggers of
//! varying sizes".
//!
//! Pipeline: XML-RPC grammar (Fig. 14) → replicate ×{1,2,4,7,10}
//! (§4.3's duplication to 300–3000 pattern bytes) → context duplication
//! (§3.2) → hardware generation (Fig. 3) → 4-LUT technology mapping →
//! static timing on the calibrated VirtexE-2000 / Virtex-4 LX200 device
//! models. The Virtex-4 model is calibrated on the smallest and largest
//! designs (533 / 316 MHz); the three intermediate rows are model
//! predictions. The VirtexE is calibrated on its single published row.
//!
//! Run: `cargo run -p cfg-bench --bin table1 --release`

#![forbid(unsafe_code)]

use cfg_bench::{calibrated_devices, row_for, synthesize_all};
use cfg_fpga::report::{paper_table1, render_table1, rows_to_json};

fn main() {
    eprintln!("synthesizing {} design points…", cfg_bench::SCALE_FACTORS.len());
    let points = synthesize_all();
    for p in &points {
        eprintln!(
            "  factor {:>2}: {:>5} pattern bytes, {:>6} LUTs, {:>6} regs, depth {}, max fanout {}",
            p.factor,
            p.pattern_bytes,
            p.stats.luts,
            p.stats.regs,
            p.stats.depth,
            p.stats.max_fanout
        );
    }
    let (v4, ve) = calibrated_devices(&points);

    // Paper row order: VirtexE@300, then Virtex4 rows.
    let mut rows = vec![row_for(&points[0], &ve)];
    rows.extend(points.iter().map(|p| row_for(p, &v4)));

    println!("{}", render_table1("Table 1 (reproduced)", &rows));
    println!("{}", render_table1("Table 1 (paper)", &paper_table1()));

    // Machine-readable copy for downstream analysis.
    if std::fs::create_dir_all("bench_results").is_ok() {
        let _ = std::fs::write("bench_results/table1.json", rows_to_json(&rows));
        let _ = std::fs::write("bench_results/table1_paper.json", rows_to_json(&paper_table1()));
        eprintln!("wrote bench_results/table1.json");
    }

    // Shape summary the reader should check.
    let lpb_first = rows[1].luts_per_byte;
    let lpb_last = rows.last().expect("rows nonempty").luts_per_byte;
    let f_first = rows[1].freq_mhz;
    let f_last = rows.last().expect("rows nonempty").freq_mhz;
    println!("shape checks:");
    println!(
        "  LUTs/byte falls with grammar size: {:.2} -> {:.2} (paper: 1.01 -> 0.77): {}",
        lpb_first,
        lpb_last,
        if lpb_last < lpb_first { "OK" } else { "FAIL" }
    );
    println!(
        "  frequency falls with grammar size: {:.0} -> {:.0} MHz (paper: 533 -> 316): {}",
        f_first,
        f_last,
        if f_last < f_first { "OK" } else { "FAIL" }
    );
    println!(
        "  VirtexE slower than Virtex4 at equal size: {:.0} vs {:.0} MHz (paper: 196 vs 533): {}",
        rows[0].freq_mhz,
        f_first,
        if rows[0].freq_mhz < f_first { "OK" } else { "FAIL" }
    );
}
