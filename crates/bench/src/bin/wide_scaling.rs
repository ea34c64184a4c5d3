//! Supplementary experiment: **wide datapath scaling** (§5.2).
//!
//! "Other improvements in speed can be gained by scaling the design to
//! process 32-bits or 64-bits per clock cycle." The paper proposes this
//! as future work; here we build the W-byte designs and measure the
//! trade: per-cycle logic ripples across W lanes, so depth grows and the
//! clock slows, but W bytes arrive per cycle — net bandwidth =
//! W × 8 × freq.
//!
//! Run: `cargo run -p cfg-bench --bin wide_scaling --release`

#![forbid(unsafe_code)]

use cfg_fpga::Device;
use cfg_grammar::transform::duplicate_multi_context_tokens;
use cfg_hwgen::{generate, generate_wide, GeneratorOptions, StartMode};
use cfg_netlist::MappedNetlist;
use cfg_xmlrpc::xmlrpc_grammar;

/// One measured design point, kept for the JSON dump.
struct WidePoint {
    w: usize,
    luts: usize,
    regs: usize,
    depth: usize,
    freq_mhz: f64,
    bandwidth_gbps: f64,
}

fn main() {
    let g = duplicate_multi_context_tokens(&xmlrpc_grammar());
    let device = Device::virtex4_lx200();

    println!("wide datapath scaling (XML-RPC grammar, Virtex-4 model)");
    println!(
        "{:>6}{:>10}{:>10}{:>8}{:>12}{:>14}{:>12}",
        "W", "LUTs", "regs", "depth", "freq (MHz)", "BW (Gbps)", "BW/W=1"
    );

    let mut points: Vec<WidePoint> = Vec::new();

    // W = 1 reference: the byte-serial design without an encoder (the
    // wide designs have none either, so the areas compare fairly).
    let base = generate(
        &g,
        &GeneratorOptions { encoder: cfg_hwgen::generate::EncoderKind::None, ..Default::default() },
    )
    .expect("generates");
    let mapped = MappedNetlist::map(&base.netlist);
    let stats = mapped.stats();
    let t = device.analyze(&mapped);
    let bw1 = t.freq_mhz * 8.0 / 1000.0;
    points.push(WidePoint {
        w: 1,
        luts: stats.luts,
        regs: stats.regs,
        depth: stats.depth,
        freq_mhz: t.freq_mhz,
        bandwidth_gbps: bw1,
    });

    for w in [2usize, 4, 8] {
        let hw = generate_wide(&g, w, StartMode::AtStart).expect("generates");
        let mapped = MappedNetlist::map(&hw.netlist);
        let stats = mapped.stats();
        let t = device.analyze(&mapped);
        let bw = (w as f64) * t.freq_mhz * 8.0 / 1000.0;
        points.push(WidePoint {
            w,
            luts: stats.luts,
            regs: stats.regs,
            depth: stats.depth,
            freq_mhz: t.freq_mhz,
            bandwidth_gbps: bw,
        });
    }

    for p in &points {
        println!(
            "{:>6}{:>10}{:>10}{:>8}{:>12.0}{:>14.2}{:>12.2}",
            p.w,
            p.luts,
            p.regs,
            p.depth,
            p.freq_mhz,
            p.bandwidth_gbps,
            p.bandwidth_gbps / bw1
        );
    }

    // Machine-readable copy for downstream analysis.
    if std::fs::create_dir_all("bench_results").is_ok() {
        let mut json = String::from("[\n");
        for (i, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "  {{\"w\": {}, \"luts\": {}, \"regs\": {}, \"depth\": {}, \
                 \"freq_mhz\": {:.1}, \"bandwidth_gbps\": {:.3}}}{}\n",
                p.w,
                p.luts,
                p.regs,
                p.depth,
                p.freq_mhz,
                p.bandwidth_gbps,
                if i + 1 == points.len() { "" } else { "," }
            ));
        }
        json.push(']');
        let _ = std::fs::write("bench_results/wide_scaling.json", json);
        eprintln!("wrote bench_results/wide_scaling.json");
    }
    println!();
    println!(
        "shape check: bandwidth grows with W while frequency falls \
         (the in-cycle lane ripple deepens the logic)."
    );
}
