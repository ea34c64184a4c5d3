#![forbid(unsafe_code)]

fn main() {
    let points = cfg_bench::synthesize_all();
    let (v4, _) = cfg_bench::calibrated_devices(&points);
    for p in &points {
        let t = v4.analyze(&p.mapped);
        println!(
            "factor {}: period {:.3} ns, routing {:.3} ns, levels {}, fanout {}",
            p.factor, t.period_ns, t.routing_ns, t.critical_levels, t.critical_fanout
        );
    }
}
