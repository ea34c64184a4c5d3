//! Wide datapath demo — §5.2's "32-bits or 64-bits per clock cycle".
//!
//! Compiles the same grammar into 1-, 4- and 8-byte-per-cycle circuits,
//! shows they produce identical events, and prints the area/frequency/
//! bandwidth trade on the Virtex-4 model.
//!
//! Run: `cargo run --example wide_datapath --release`

use cfg_token_tagger::fpga::Device;
use cfg_token_tagger::grammar::builtin;
use cfg_token_tagger::netlist::MappedNetlist;
use cfg_token_tagger::tagger::{TaggerOptions, TokenTagger, WideTagger};

fn main() {
    let grammar = builtin::if_then_else();
    let input = b"if true then if false then go else stop else go";

    let byte_tagger = TokenTagger::compile(&grammar, TaggerOptions::default()).expect("compiles");
    let reference = byte_tagger.tag(input);
    println!(
        "reference (byte-serial): {} events on {:?}",
        reference.len(),
        String::from_utf8_lossy(input)
    );

    let device = Device::virtex4_lx200();
    println!();
    println!(
        "{:>3} {:>8} {:>8} {:>7} {:>12} {:>12}  events",
        "W", "LUTs", "FFs", "depth", "freq (MHz)", "BW (Gbps)"
    );
    for lanes in [1usize, 4, 8] {
        let wide =
            WideTagger::compile(&grammar, lanes, TaggerOptions::default()).expect("compiles");
        let events = wide.tag(input).expect("simulates");
        assert_eq!(events, reference, "W={lanes} must match the reference");

        let mapped = MappedNetlist::map(&wide.hardware().netlist);
        let stats = mapped.stats();
        let t = device.analyze(&mapped);
        println!(
            "{:>3} {:>8} {:>8} {:>7} {:>12.0} {:>12.2}  {} (identical)",
            lanes,
            stats.luts,
            stats.regs,
            stats.depth,
            t.freq_mhz,
            lanes as f64 * t.freq_mhz * 8.0 / 1000.0,
            events.len(),
        );
    }
    println!();
    println!(
        "the W-lane ripple deepens the combinational logic (slower clock) but \
         consumes W bytes per cycle — net bandwidth rises sublinearly."
    );
}
