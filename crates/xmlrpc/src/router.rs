//! The Figure 12 content-based router.
//!
//! "As messages pass through the system, the CFG parser tagger asserts a
//! signal associated with a service when that service is found in a
//! message. This signal is then used to control a switch which routes
//! the message to the appropriate destination." The routing key is the
//! `STRING` token **in its `methodName` context** — the context
//! duplication of §3.2 is what lets the router ignore identical strings
//! inside parameter values.

use crate::workload::{BANK_SERVICES, SHOP_SERVICES};
use cfg_grammar::TokenId;
use cfg_obs::{Metrics, Stat, TraceEvent};
use cfg_tagger::{Backend, TagEvent, TokenTagger};

/// Output ports of the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// The bank server.
    Bank,
    /// The shopping server.
    Shop,
    /// No known service found in `<methodName>`.
    Unknown,
}

/// Precomputed routing tables for a compiled tagger.
#[derive(Debug, Clone)]
pub struct RouterTables {
    /// The compiled token id of STRING in the methodName context.
    method_string: TokenId,
}

impl RouterTables {
    /// Locate the `STRING`-in-`methodName` token in a compiled tagger.
    /// Requires the tagger to be compiled with context duplication (the
    /// default).
    pub fn new(tagger: &TokenTagger) -> Option<RouterTables> {
        let g = tagger.grammar();
        let idx = g.tokens().iter().position(|t| {
            t.name.starts_with("STRING")
                && t.context.as_ref().is_some_and(|c| c.production == "methodName")
        })?;
        Some(RouterTables { method_string: TokenId(idx as u32) })
    }

    /// The token id the router listens on.
    pub fn method_string_token(&self) -> TokenId {
        self.method_string
    }
}

/// The router back-end: collects one routing decision per message.
#[derive(Debug)]
pub struct Router {
    tables: RouterTables,
    /// Decisions in stream order (service name, port).
    pub decisions: Vec<(String, Port)>,
    /// Byte offset (exclusive end of the deciding lexeme) at which the
    /// first routing decision became available — the paper's selling
    /// point is how early in the stream this lands.
    pub first_decision_end: Option<usize>,
    metrics: Metrics,
}

impl Router {
    /// New router over precomputed tables.
    pub fn new(tables: RouterTables) -> Router {
        Router { tables, decisions: Vec::new(), first_decision_end: None, metrics: Metrics::off() }
    }

    /// Attach an observability handle (builder style).
    pub fn with_metrics(mut self, metrics: Metrics) -> Router {
        self.metrics = metrics;
        self
    }

    /// Port for a service name.
    pub fn port_for(service: &str) -> Port {
        if BANK_SERVICES.contains(&service) {
            Port::Bank
        } else if SHOP_SERVICES.contains(&service) {
            Port::Shop
        } else {
            Port::Unknown
        }
    }

    /// Route one complete message; returns the selected port.
    ///
    /// Records per-port decision counters, the `route_latency_bytes`
    /// histogram (bytes into the message at which the decision landed),
    /// and [`Stat::MalformedRejected`] for messages yielding no
    /// `methodName` at all — via the tagger's metrics handle.
    pub fn route(tagger: &TokenTagger, tables: &RouterTables, message: &[u8]) -> Port {
        let metrics = tagger.options().metrics.clone();
        let mut r = Router::new(tables.clone()).with_metrics(metrics.clone());
        tagger.process(message, &mut r);
        match r.decisions.first() {
            Some((_, port)) => {
                let stat = match port {
                    Port::Bank => Stat::RouteBank,
                    Port::Shop => Stat::RouteShop,
                    Port::Unknown => Stat::RouteUnknown,
                };
                metrics.add(stat, 1);
                if let Some(end) = r.first_decision_end {
                    metrics.observe("route_latency_bytes", end as u64);
                }
                *port
            }
            None => {
                // No methodName token fired: the stream does not conform
                // to the XML-RPC grammar as far as routing is concerned.
                metrics.add(Stat::MalformedRejected, 1);
                metrics
                    .trace(|| TraceEvent::new("malformed_rejected").field("bytes", message.len()));
                Port::Unknown
            }
        }
    }
}

impl Backend for Router {
    fn on_event(&mut self, event: TagEvent, _tagger: &TokenTagger, input: &[u8]) {
        if event.token == self.tables.method_string {
            let service = String::from_utf8_lossy(event.lexeme(input)).into_owned();
            let port = Self::port_for(&service);
            if self.first_decision_end.is_none() {
                self.first_decision_end = Some(event.end);
            }
            if self.metrics.is_enabled() {
                self.metrics.trace(|| {
                    TraceEvent::new("route")
                        .field("service", service.as_str())
                        .field("port", format!("{port:?}"))
                        .field("at", event.end)
                });
            }
            self.decisions.push((service, port));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::xmlrpc_grammar;
    use crate::workload::{MessageKind, WorkloadGenerator};
    use cfg_tagger::TaggerOptions;

    fn tagger() -> TokenTagger {
        TokenTagger::compile(&xmlrpc_grammar(), TaggerOptions::default()).unwrap()
    }

    #[test]
    fn routes_bank_and_shop() {
        let t = tagger();
        let tables = RouterTables::new(&t).unwrap();
        let bank = b"<methodCall><methodName>deposit</methodName><params><param><i4>100</i4></param></params></methodCall>";
        let shop = b"<methodCall><methodName>buy</methodName><params><param><string>book</string></param></params></methodCall>";
        assert_eq!(Router::route(&t, &tables, bank), Port::Bank);
        assert_eq!(Router::route(&t, &tables, shop), Port::Shop);
    }

    #[test]
    fn unknown_service_unrouted() {
        let t = tagger();
        let tables = RouterTables::new(&t).unwrap();
        let msg = b"<methodCall><methodName>frobnicate</methodName><params><param><i4>1</i4></param></params></methodCall>";
        assert_eq!(Router::route(&t, &tables, msg), Port::Unknown);
    }

    #[test]
    fn adversarial_messages_route_by_method_not_decoy() {
        let t = tagger();
        let tables = RouterTables::new(&t).unwrap();
        let mut gen = WorkloadGenerator::new(11);
        for _ in 0..25 {
            let m = gen.message(MessageKind::Adversarial);
            let text = String::from_utf8_lossy(&m.bytes);
            let decoy = m.decoy.as_deref().expect("an adversarial message carries a decoy");
            assert!(text.contains(decoy), "{text:?}");
            let port = Router::route(&t, &tables, &m.bytes);
            assert_eq!(port, Router::port_for(&m.method), "message {text:?} routed to decoy!");
            // The tagger asserts one service, the requested one: the
            // decoy in a parameter value is no false positive.
            let mut r = Router::new(tables.clone());
            t.process(&m.bytes, &mut r);
            assert_eq!(r.decisions, [(m.method.clone(), port)], "message {text:?}");
        }
    }

    #[test]
    fn honest_workload_routes_correctly() {
        let t = tagger();
        let tables = RouterTables::new(&t).unwrap();
        let mut gen = WorkloadGenerator::new(12);
        for _ in 0..25 {
            let m = gen.message(MessageKind::Honest);
            assert_eq!(Router::route(&t, &tables, &m.bytes), Router::port_for(&m.method));
        }
    }

    #[test]
    fn full_value_set_messages_still_route() {
        // dateTime/base64 values break a conventional lexer, not the
        // tagger.
        let t = tagger();
        let tables = RouterTables::new(&t).unwrap();
        let mut gen = WorkloadGenerator::new(13).with_full_values();
        for _ in 0..25 {
            let m = gen.message(MessageKind::Honest);
            assert_eq!(
                Router::route(&t, &tables, &m.bytes),
                Router::port_for(&m.method),
                "message {:?}",
                String::from_utf8_lossy(&m.bytes)
            );
        }
    }

    #[test]
    fn route_decisions_are_counted() {
        use cfg_obs::{Metrics, Stat, StatsSink};
        let sink = std::sync::Arc::new(StatsSink::new());
        let t = TokenTagger::compile(
            &xmlrpc_grammar(),
            cfg_tagger::TaggerOptions::builder().metrics(Metrics::new(sink.clone())).build(),
        )
        .unwrap();
        let tables = RouterTables::new(&t).unwrap();
        let bank = b"<methodCall><methodName>deposit</methodName><params><param><i4>1</i4></param></params></methodCall>";
        let shop = b"<methodCall><methodName>buy</methodName><params><param><i4>1</i4></param></params></methodCall>";
        let junk = b"this is not xml-rpc at all";
        assert_eq!(Router::route(&t, &tables, bank), Port::Bank);
        assert_eq!(Router::route(&t, &tables, bank), Port::Bank);
        assert_eq!(Router::route(&t, &tables, shop), Port::Shop);
        assert_eq!(Router::route(&t, &tables, junk), Port::Unknown);
        assert_eq!(sink.get(Stat::RouteBank), 2);
        assert_eq!(sink.get(Stat::RouteShop), 1);
        assert_eq!(sink.get(Stat::RouteUnknown), 0);
        assert_eq!(sink.get(Stat::MalformedRejected), 1);
        // The latency histogram observed one entry per routed message,
        // each well before the end of the message.
        let snap = sink.snapshot();
        let (_, hist) = snap
            .histograms
            .iter()
            .find(|(name, _)| *name == "route_latency_bytes")
            .expect("route latency histogram recorded");
        assert_eq!(hist.count, 3);
        assert!((hist.max as usize) < bank.len());
    }

    #[test]
    fn tables_require_duplication() {
        let t = TokenTagger::compile(
            &xmlrpc_grammar(),
            TaggerOptions { duplicate_contexts: false, ..Default::default() },
        )
        .unwrap();
        assert!(RouterTables::new(&t).is_none());
    }
}
