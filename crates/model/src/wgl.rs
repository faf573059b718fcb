//! Wing&Gong-style linearizability checking over per-key register
//! histories.
//!
//! The explorer reduces every execution to a *history*: a sequence of
//! invocation/response events for INSERT / UPDATE / SEARCH / DELETE,
//! stamped with a global real-time counter (everything runs on one
//! executor thread, so the stamp order *is* real time). Each key is an
//! independent register — Aceso's protocol gives no cross-key ordering
//! promises — so the checker runs per key:
//!
//! * INSERT / UPDATE with an `Ok` response is a completed write of its
//!   value; DELETE is a completed write of "absent".
//! * SEARCH with an `Ok` response is a completed read of what it saw.
//! * An operation cut down by a crash (no response) is *pending*: it may
//!   be linearized at any point after its invocation, or dropped entirely
//!   — both are legal outcomes of a commit that never acknowledged.
//!
//! The history is linearizable iff the completed operations admit a total
//! order that (a) respects real time (`resp(a) < inv(b)` keeps `a` before
//! `b`), and (b) reads the register correctly, with pending writes
//! optionally spliced in. The search memoizes on (linearized set, last
//! writer), which makes the tiny per-key histories (≤ 64 ops) instant.

use std::collections::HashSet;

/// What one operation did to its key's register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyOpKind {
    /// INSERT/UPDATE of `Some(v)`, DELETE writes `None`.
    Write(Option<Vec<u8>>),
    /// SEARCH observing `Some(v)` or absence.
    Read(Option<Vec<u8>>),
}

/// One operation of a single-key history.
#[derive(Clone, Debug)]
pub struct KeyOp {
    /// Register effect / observation.
    pub kind: KeyOpKind,
    /// Invocation stamp (global real-time counter).
    pub inv: u64,
    /// Response stamp; `None` marks a pending (crash-cut) operation.
    pub resp: Option<u64>,
    /// Task label for counterexample messages.
    pub who: String,
}

impl KeyOp {
    fn is_completed(&self) -> bool {
        self.resp.is_some()
    }
}

/// Whether `ops` is a linearizable single-register history starting from
/// `initial`. Pending reads must not be passed in (a read that never
/// returned constrains nothing — drop it before calling).
pub fn check_key(initial: Option<&[u8]>, ops: &[KeyOp]) -> bool {
    assert!(ops.len() <= 64, "per-key history too large for the mask");
    assert!(
        ops.iter()
            .all(|o| o.is_completed() || matches!(o.kind, KeyOpKind::Write(_))),
        "pending reads must be dropped before checking"
    );
    let full: u64 = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_completed())
        .map(|(i, _)| 1u64 << i)
        .fold(0, |m, b| m | b);
    // `last` = index of the last linearized write (None = initial value).
    let mut seen: HashSet<(u64, usize)> = HashSet::new();
    let mut stack: Vec<(u64, Option<usize>)> = vec![(0, None)];
    while let Some((mask, last)) = stack.pop() {
        if mask & full == full {
            return true;
        }
        if !seen.insert((mask, last.map_or(0, |i| i + 1))) {
            continue;
        }
        let reg: Option<&[u8]> = match last {
            None => initial,
            Some(i) => match &ops[i].kind {
                KeyOpKind::Write(v) => v.as_deref(),
                KeyOpKind::Read(_) => unreachable!("last always indexes a write"),
            },
        };
        for (i, op) in ops.iter().enumerate() {
            if mask & (1 << i) != 0 {
                continue;
            }
            // Minimality: `op` may go next only if every operation that
            // finished before `op` even started is already linearized.
            let blocked = ops.iter().enumerate().any(|(j, r)| {
                j != i && mask & (1 << j) == 0 && r.resp.is_some_and(|resp| resp < op.inv)
            });
            if blocked {
                continue;
            }
            match &op.kind {
                KeyOpKind::Read(saw) => {
                    if saw.as_deref() == reg {
                        stack.push((mask | (1 << i), last));
                    }
                }
                KeyOpKind::Write(_) => stack.push((mask | (1 << i), Some(i))),
            }
        }
    }
    false
}

/// Renders a single-key history for counterexample reports, in stamp
/// order.
pub fn render_history(key: &str, initial: Option<&[u8]>, ops: &[KeyOp]) -> Vec<String> {
    let mut lines = vec![format!("history of {key} (initial {}):", fmt_val(initial))];
    let mut sorted: Vec<&KeyOp> = ops.iter().collect();
    sorted.sort_by_key(|o| o.inv);
    for o in sorted {
        let span = match o.resp {
            Some(r) => format!("[{}..{r}]", o.inv),
            None => format!("[{}..crash]", o.inv),
        };
        let what = match &o.kind {
            KeyOpKind::Write(v) => format!("WRITE {}", fmt_val(v.as_deref())),
            KeyOpKind::Read(v) => format!("READ -> {}", fmt_val(v.as_deref())),
        };
        lines.push(format!("  {span:<14} {:<10} {what}", o.who));
    }
    lines
}

fn fmt_val(v: Option<&[u8]>) -> String {
    match v {
        None => "absent".to_string(),
        Some(b) => format!("{:?}", String::from_utf8_lossy(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: &str, inv: u64, resp: impl Into<Option<u64>>, who: &str) -> KeyOp {
        KeyOp {
            kind: KeyOpKind::Write(Some(v.as_bytes().to_vec())),
            inv,
            resp: resp.into(),
            who: who.to_string(),
        }
    }

    fn r(v: Option<&str>, inv: u64, resp: u64, who: &str) -> KeyOp {
        KeyOp {
            kind: KeyOpKind::Read(v.map(|s| s.as_bytes().to_vec())),
            inv,
            resp: Some(resp),
            who: who.to_string(),
        }
    }

    /// A concurrent writer/reader pair where the read may order on either
    /// side of the overlapping write, plus a final read of the new value.
    #[test]
    fn accepts_known_good_history() {
        let ops = [
            w("b", 0, 3, "A"),
            r(Some("a"), 1, 2, "B"), // overlaps the write: reads old — fine
            r(Some("b"), 4, 5, "B"),
        ];
        assert!(check_key(Some(b"a"), &ops));
    }

    /// A pending (crash-cut) write may be dropped or spliced in; both
    /// explanations of a post-crash read must be accepted.
    #[test]
    fn accepts_pending_write_either_way() {
        let pending = KeyOp {
            kind: KeyOpKind::Write(Some(b"b".to_vec())),
            inv: 0,
            resp: None,
            who: "A".to_string(),
        };
        // Dropped: later read sees the initial value.
        assert!(check_key(
            Some(b"a"),
            &[pending.clone(), r(Some("a"), 1, 2, "V")]
        ));
        // Took effect: later read sees the written value.
        assert!(check_key(Some(b"a"), &[pending, r(Some("b"), 1, 2, "V")]));
    }

    /// The satellite's canonical rejection: a stale read *after* an
    /// acknowledged update is not linearizable.
    #[test]
    fn rejects_stale_read_after_acked_update() {
        let ops = [
            w("b", 0, 1, "A"),       // acknowledged
            r(Some("a"), 2, 3, "B"), // strictly later, still sees old
        ];
        assert!(!check_key(Some(b"a"), &ops));
    }

    /// The satellite's torn history: two reads observe a single write in
    /// opposite orders — no total order explains both.
    #[test]
    fn rejects_torn_history() {
        let ops = [
            w("b", 0, 5, "A"),
            r(Some("b"), 1, 2, "B"), // write already visible...
            r(Some("a"), 3, 4, "B"), // ...then gone again
        ];
        assert!(!check_key(Some(b"a"), &ops));
    }

    /// Deletes are writes of "absent".
    #[test]
    fn handles_deletes() {
        let del = KeyOp {
            kind: KeyOpKind::Write(None),
            inv: 0,
            resp: Some(1),
            who: "A".to_string(),
        };
        assert!(check_key(Some(b"a"), &[del.clone(), r(None, 2, 3, "V")]));
        assert!(!check_key(Some(b"a"), &[del, r(Some("a"), 2, 3, "V")]));
    }

    /// Real-time order is enforced even when values would match some
    /// reordering: `resp(a) < inv(b)` pins `a` before `b`.
    #[test]
    fn respects_real_time_precedence() {
        let ops = [
            w("b", 0, 1, "A"),
            w("c", 2, 3, "A"),
            r(Some("b"), 4, 5, "B"), // must come after both writes
        ];
        assert!(!check_key(Some(b"a"), &ops));
    }
}
