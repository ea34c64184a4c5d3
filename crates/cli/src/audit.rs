//! `cfgtag watch audit` — a correctness view over a shadow-auditing
//! ingest server.
//!
//! Renders the `cfgtag_audit_*` families of a registry [`Snapshot`]
//! from a `cfgtag serve --listen --audit-sample N` exporter
//! ([`render`]): live precision (fires the exact PDA parser confirmed),
//! the per-token false positive table with rates per audited megabyte,
//! the cross-engine divergence count, and the audit-queue shed ratio.

use cfg_obs::Snapshot;
use std::fmt::Write as _;

/// Render one `audit` frame: the verdict header (precision,
/// divergences, shed ratio) plus the per-token false-positive table.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    if snap.get("cfgtag_audit_frames_total").is_none() {
        let _ = writeln!(out, "cfgtag audit — auditing is OFF (serve with --audit-sample N)");
        return out;
    }
    let count =
        |name: &str, labels: &[(&str, &str)]| snap.value(name, labels).unwrap_or(0.0) as u64;
    let session = |outcome| count("cfgtag_audit_sessions_total", &[("outcome", outcome)]);
    let (sampled, audited, shed) = (session("sampled"), session("audited"), session("shed"));
    let fires = |verdict| count("cfgtag_audit_fires_total", &[("verdict", verdict)]);
    let (fires_total, fires_confirmed) = (fires("all"), fires("confirmed"));
    let divergences = count("cfgtag_audit_divergences_total", &[]);
    let bytes = count("cfgtag_audit_bytes_total", &[]);
    let verdict = if divergences > 0 {
        "DIVERGED"
    } else if audited == 0 {
        "waiting for sampled sessions"
    } else {
        "engines agree"
    };
    let _ = writeln!(out, "cfgtag audit — {verdict}");
    match snap.value("cfgtag_audit_precision_pct", &[]) {
        Some(p) => {
            let _ = writeln!(
                out,
                "precision {p:>10.3}%   ({fires_confirmed} of {fires_total} fires confirmed by the exact parser)"
            );
        }
        None => {
            let _ = writeln!(out, "precision          —   (no fires audited yet)");
        }
    }
    let _ = writeln!(out, "divergences {divergences:>9}   (fast engine vs scalar reference)");
    let shed_pct = if sampled > 0 { shed as f64 / sampled as f64 * 100.0 } else { 0.0 };
    let _ = writeln!(
        out,
        "sessions {sampled:>12}   sampled, {audited} audited, {shed} shed ({shed_pct:.1}% of sampled)"
    );
    let frames = count("cfgtag_audit_frames_total", &[]);
    let _ = writeln!(out, "replayed {frames:>12}   frames, {bytes} bytes");
    let fp_series = snap.get("cfgtag_audit_false_positives_total").map_or(&[][..], |f| &f.series);
    let mut rows: Vec<(String, u64)> = fp_series
        .iter()
        .map(|s| {
            let name = s.label("name").map(str::to_owned);
            let name = name.unwrap_or_else(|| format!("tok{}", s.label("token").unwrap_or("?")));
            (name, s.number().unwrap_or(0.0) as u64)
        })
        .collect();
    if !rows.is_empty() {
        let mb = (bytes as f64 / (1024.0 * 1024.0)).max(f64::MIN_POSITIVE);
        let _ = writeln!(out, "{:<24} {:>14} {:>14}", "false positives", "count", "per MB");
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (name, count) in rows {
            let _ = writeln!(out, "{name:<24} {count:>14} {:>14.2}", count as f64 / mb);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfg_obs::AuditBank;

    /// An audit bank's snapshot: 10 sessions sampled, 8 audited, 2 shed,
    /// 1 MiB replayed, 3 false positives of `INT`.
    fn snapshot(fires: u64, confirmed: u64, divergences: u64) -> Snapshot {
        let bank = AuditBank::new(2);
        for _ in 0..10 {
            bank.session_sampled();
        }
        for _ in 0..8 {
            bank.session_audited();
        }
        bank.session_shed();
        bank.session_shed();
        bank.frame_audited(1 << 20);
        bank.fires(fires, confirmed);
        for _ in 0..3 {
            bank.false_positive(1);
        }
        for _ in 0..divergences {
            bank.divergence();
        }
        let mut snap = Snapshot::default();
        bank.export(&mut snap, &["methodName".into(), "INT".into()]);
        snap
    }

    #[test]
    fn render_shows_precision_divergences_and_shed_ratio() {
        let frame = render(&snapshot(200, 197, 0));
        assert!(frame.contains("engines agree"), "{frame}");
        assert!(frame.contains("98.500%"), "{frame}");
        assert!(frame.contains("(20.0% of sampled)"), "{frame}");
        let int_row = frame.lines().find(|l| l.starts_with("INT")).unwrap();
        // 3 FPs over exactly 1 MiB audited.
        assert!(int_row.contains("3.00"), "{frame}");

        let diverged = render(&snapshot(200, 197, 2));
        assert!(diverged.contains("DIVERGED"), "{diverged}");
        // No fires audited yet: no precision to show.
        assert!(render(&snapshot(0, 0, 0)).contains("no fires audited yet"));

        let dark = render(&Snapshot::default());
        assert!(dark.contains("auditing is OFF"), "{dark}");
    }
}
