//! Exporter polling for `cfgtag watch`: tolerant GETs with a retry
//! budget and exponential backoff.
//!
//! A live view polls a `cfgtag serve` HTTP exporter in a loop, and the
//! first misses usually mean serve has not bound yet (or just
//! restarted) — so a view takes a `--retries` budget and backs off
//! instead of failing on the first refused connect. [`Poller`] keeps
//! that bookkeeping and turns every other answer into a verdict; the
//! watch loop prints the notes and sleeps the backoffs.

use crate::CliError;

/// Backoff before retry `attempt` (1-based): 200 ms doubling per
/// attempt, capped at 3.2 s.
pub fn backoff_ms(attempt: u32) -> u64 {
    200u64 << attempt.saturating_sub(1).min(4)
}

/// Why a poll produced no screen.
#[derive(Debug)]
pub enum Miss {
    /// A fetch failed inside the retry budget: print `note`, sleep
    /// `wait_ms`, then poll again.
    Retry {
        /// One line for stderr.
        note: String,
        /// Backoff before the next attempt.
        wait_ms: u64,
    },
    /// The view cannot go on: print the error and exit with its code.
    Fail(CliError),
}

impl From<CliError> for Miss {
    fn from(e: CliError) -> Miss {
        Miss::Fail(e)
    }
}

/// Retry bookkeeping for one exporter: consecutive transport failures
/// are tolerated up to the `--retries` budget, and any `200` answer
/// resets the budget.
#[derive(Debug)]
pub struct Poller {
    addr: String,
    retries: u32,
    failures: u32,
}

impl Poller {
    /// A fresh budget of `retries` for the exporter at `addr`.
    pub fn new(addr: &str, retries: u32) -> Poller {
        Poller { addr: addr.to_owned(), retries, failures: 0 }
    }

    /// GET `path` and return the body of a `200` answer. Any other
    /// status fails the view with the exporter's own explanation; a
    /// transport error asks for a retry until the budget is spent.
    pub fn get(&mut self, path: &str) -> Result<String, Miss> {
        match cfg_obs_http::http_get_status(&self.addr, path) {
            Ok((200, body)) => {
                self.failures = 0;
                Ok(body)
            }
            Ok((status, body)) => {
                Err(CliError::new(format!("{path} answered {status}: {}", body.trim()), 1).into())
            }
            Err(e) => Err(self.failed(path, &e.to_string())),
        }
    }

    /// GET `path` where anything but a `200` answer just means "nothing
    /// there yet": the body, or `None`. Spends no retry budget.
    pub fn get_if_ok(&self, path: &str) -> Option<String> {
        match cfg_obs_http::http_get_status(&self.addr, path) {
            Ok((200, body)) => Some(body),
            _ => None,
        }
    }

    fn failed(&mut self, path: &str, err: &str) -> Miss {
        self.failures += 1;
        let addr = &self.addr;
        if self.failures > self.retries {
            return Miss::Fail(CliError::new(
                format!(
                    "cannot fetch http://{addr}{path}: {err}\n\
                     giving up after {} attempts — is `cfgtag serve` running on {addr}?",
                    self.failures
                ),
                1,
            ));
        }
        let wait_ms = backoff_ms(self.failures);
        Miss::Retry {
            note: format!(
                "{addr} not responding ({err}); retry {}/{} in {wait_ms} ms",
                self.failures, self.retries
            ),
            wait_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfg_obs::Registry;
    use cfg_obs_http::Exporter;
    use std::sync::Arc;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_ms(1), 200);
        assert_eq!(backoff_ms(2), 400);
        assert_eq!(backoff_ms(3), 800);
        assert_eq!(backoff_ms(5), 3200);
        assert_eq!(backoff_ms(50), 3200);
    }

    #[test]
    fn budget_spends_then_gives_up_and_an_answer_resets_it() {
        let exporter = Exporter::bind("127.0.0.1:0", Arc::new(Registry::new())).unwrap();
        let mut p = Poller::new(&exporter.local_addr().to_string(), 1);
        assert!(matches!(p.failed("/healthz", "refused"), Miss::Retry { wait_ms: 200, .. }));
        assert_eq!(p.get("/healthz").unwrap(), "ok\n");
        // The answer reset the budget: one more miss is a retry again,
        // the next one gives up.
        assert!(matches!(p.failed("/healthz", "refused"), Miss::Retry { .. }));
        match p.failed("/healthz", "refused") {
            Miss::Fail(e) => assert!(e.message.contains("giving up after 2 attempts"), "{e}"),
            other => panic!("expected give-up, got {other:?}"),
        }
        assert_eq!(p.get_if_ok("/nope"), None, "a 404 is just nothing there yet");
        exporter.stop();
    }
}
