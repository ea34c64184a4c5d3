//! `cfgtag watch audit` — a correctness view over a shadow-auditing
//! ingest server.
//!
//! Decodes `/audit.json` from a `cfgtag serve --listen --audit-sample
//! N` exporter ([`parse_audit`]) and renders the audit lane's verdicts
//! ([`render`]): live precision (fires the exact PDA parser confirmed),
//! the per-token false positive table with rates per audited megabyte,
//! the cross-engine divergence count, and the audit-queue shed ratio.

use crate::CliError;
use cfg_obs::json::Json;
use std::fmt::Write as _;

/// One decoded `/audit.json` sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditSample {
    /// Whether the server is auditing at all.
    pub enabled: bool,
    /// Sessions matched by the 1-in-N sample.
    pub sessions_sampled: u64,
    /// Sessions fully replayed by the audit lane.
    pub sessions_audited: u64,
    /// Sampled sessions dropped because the audit queue was full.
    pub sessions_shed: u64,
    /// Frames replayed.
    pub frames_audited: u64,
    /// Bytes replayed.
    pub bytes_audited: u64,
    /// Token fires replayed.
    pub fires_total: u64,
    /// Fires the exact parser confirmed.
    pub fires_confirmed: u64,
    /// Cross-engine divergences caught.
    pub divergences: u64,
    /// Live precision % (`None` until a fire has been audited).
    pub precision_pct: Option<f64>,
    /// Per-token false positives: `(name, count)`, nonzero rows only.
    pub false_positives: Vec<(String, u64)>,
}

/// Decode an `/audit.json` body into an [`AuditSample`].
pub fn parse_audit(body: &str) -> Result<AuditSample, CliError> {
    let v = Json::parse(body).map_err(|e| CliError::new(format!("bad audit JSON: {e}"), 1))?;
    let num = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut s = AuditSample {
        enabled: v.get("enabled").and_then(Json::as_bool).unwrap_or(false),
        sessions_sampled: num("sessions_sampled"),
        sessions_audited: num("sessions_audited"),
        sessions_shed: num("sessions_shed"),
        frames_audited: num("frames_audited"),
        bytes_audited: num("bytes_audited"),
        fires_total: num("fires_total"),
        fires_confirmed: num("fires_confirmed"),
        divergences: num("divergences"),
        precision_pct: v.get("precision_pct").and_then(Json::as_f64),
        ..Default::default()
    };
    if let Some(rows) = v.get("false_positives").and_then(Json::as_array) {
        for row in rows {
            let name = row.get("token").and_then(Json::as_str).unwrap_or("?").to_owned();
            let count = row.get("count").and_then(Json::as_u64).unwrap_or(0);
            s.false_positives.push((name, count));
        }
    }
    Ok(s)
}

/// Render one `audit` frame: the verdict header (precision,
/// divergences, shed ratio) plus the per-token false-positive table.
pub fn render(cur: &AuditSample) -> String {
    let mut out = String::new();
    if !cur.enabled {
        let _ = writeln!(out, "cfgtag audit — auditing is OFF (serve with --audit-sample N)");
        return out;
    }
    let verdict = if cur.divergences > 0 {
        "DIVERGED"
    } else if cur.sessions_audited == 0 {
        "waiting for sampled sessions"
    } else {
        "engines agree"
    };
    let _ = writeln!(out, "cfgtag audit — {verdict}");
    match cur.precision_pct {
        Some(p) => {
            let _ = writeln!(
                out,
                "precision {:>10.3}%   ({} of {} fires confirmed by the exact parser)",
                p, cur.fires_confirmed, cur.fires_total
            );
        }
        None => {
            let _ = writeln!(out, "precision          —   (no fires audited yet)");
        }
    }
    let _ = writeln!(out, "divergences {:>9}   (fast engine vs scalar reference)", cur.divergences);
    let shed_pct = if cur.sessions_sampled > 0 {
        cur.sessions_shed as f64 / cur.sessions_sampled as f64 * 100.0
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "sessions {:>12}   sampled, {} audited, {} shed ({shed_pct:.1}% of sampled)",
        cur.sessions_sampled, cur.sessions_audited, cur.sessions_shed
    );
    let _ =
        writeln!(out, "replayed {:>12}   frames, {} bytes", cur.frames_audited, cur.bytes_audited);
    if !cur.false_positives.is_empty() {
        let mb = (cur.bytes_audited as f64 / (1024.0 * 1024.0)).max(f64::MIN_POSITIVE);
        let _ = writeln!(out, "{:<24} {:>14} {:>14}", "false positives", "count", "per MB");
        let mut rows = cur.false_positives.clone();
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

    /// An `/audit.json` body in the exact shape the bank renders.
    fn body(fires: u64, confirmed: u64, divergences: u64) -> String {
        format!(
            "{{\"enabled\":true,\"sessions_sampled\":10,\"sessions_audited\":8,\
             \"sessions_shed\":2,\"frames_audited\":40,\"bytes_audited\":1048576,\
             \"fires_total\":{fires},\"fires_confirmed\":{confirmed},\
             \"divergences\":{divergences},\"precision_pct\":{},\
             \"false_positives\":[{{\"token\":\"INT\",\"count\":3}}]}}",
            if fires > 0 {
                format!("{:.3}", confirmed as f64 / fires as f64 * 100.0)
            } else {
                "null".into()
            },
        )
    }

    #[test]
    fn parse_audit_decodes_counters_precision_and_fp_rows() {
        let s = parse_audit(&body(200, 197, 1)).unwrap();
        assert!(s.enabled);
        assert_eq!(s.sessions_sampled, 10);
        assert_eq!(s.sessions_shed, 2);
        assert_eq!(s.fires_total, 200);
        assert_eq!(s.divergences, 1);
        assert!((s.precision_pct.unwrap() - 98.5).abs() < 0.01);
        assert_eq!(s.false_positives, vec![("INT".to_owned(), 3)]);
        // No fires yet: precision is null -> None.
        let s = parse_audit(&body(0, 0, 0)).unwrap();
        assert_eq!(s.precision_pct, None);
        assert!(parse_audit("not json").is_err());
    }

    #[test]
    fn render_shows_precision_divergences_and_shed_ratio() {
        let frame = render(&parse_audit(&body(200, 197, 0)).unwrap());
        assert!(frame.contains("engines agree"), "{frame}");
        assert!(frame.contains("98.500%"), "{frame}");
        assert!(frame.contains("(20.0% of sampled)"), "{frame}");
        let int_row = frame.lines().find(|l| l.starts_with("INT")).unwrap();
        // 3 FPs over exactly 1 MiB audited.
        assert!(int_row.contains("3.00"), "{frame}");

        let diverged = render(&parse_audit(&body(200, 197, 2)).unwrap());
        assert!(diverged.contains("DIVERGED"), "{diverged}");

        let dark = render(&AuditSample::default());
        assert!(dark.contains("auditing is OFF"), "{dark}");
    }
}
