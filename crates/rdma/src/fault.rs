//! Deterministic verb-level fault injection.
//!
//! A [`FaultPlan`] is an interceptor a chaos harness installs on a
//! [`crate::DmClient`] (per-endpoint faults) or a [`crate::MemoryNode`]
//! (per-NIC faults, hit by every client). Each plan holds an ordered list
//! of [`FaultRule`]s; every verb consults the plan *before* touching
//! memory, and the first rule whose filter matches and whose skip count
//! has elapsed fires its [`FaultAction`]:
//!
//! * [`FaultAction::Fail`] — the verb returns [`crate::RdmaError::Injected`]
//!   without executing, modelling a lost/NACKed work request.
//! * [`FaultAction::Delay`] — the verb sleeps, then proceeds, modelling
//!   fabric congestion.
//! * [`FaultAction::KillNode`] — the verb *executes*, then the target node
//!   fail-stops, modelling a crash immediately after the Nth access (the
//!   most adversarial timing for commit protocols: the write landed but
//!   nothing after it did).
//!
//! Rules are matched and counted under a lock, so a plan shared by
//! concurrent clients still fires each rule exactly `max_fires` times and
//! a seeded schedule replays identically. Fired events are logged and
//! retrievable via [`FaultPlan::fired`] for coverage reporting.

use crate::addr::NodeId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The verb classes an injection rule can match.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VerbKind {
    /// `RDMA_READ` (including 8 B atomic loads).
    Read,
    /// `RDMA_WRITE` (including inline writes).
    Write,
    /// `RDMA_CAS`.
    Cas,
    /// `RDMA_FAA`.
    Faa,
    /// Two-sided RPC (send/recv).
    Rpc,
}

impl core::fmt::Display for VerbKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            VerbKind::Read => "read",
            VerbKind::Write => "write",
            VerbKind::Cas => "cas",
            VerbKind::Faa => "faa",
            VerbKind::Rpc => "rpc",
        };
        f.write_str(s)
    }
}

/// One fabric access as seen by the interceptor.
#[derive(Clone, Copy, Debug)]
pub struct FaultSite {
    /// Verb class.
    pub kind: VerbKind,
    /// Target memory node.
    pub node: NodeId,
    /// Byte offset within the target region (0 for RPC).
    pub offset: u64,
    /// Access length in bytes (request payload for RPC).
    pub len: usize,
}

/// What happens when a rule fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// The verb fails with [`crate::RdmaError::Injected`]; memory is not
    /// touched.
    Fail,
    /// The verb is delayed by this many microseconds, then proceeds.
    Delay(u64),
    /// The verb executes, then the *target node* fail-stops (kill-after-
    /// the-Nth-matching-verb semantics).
    KillNode,
}

/// Filter + firing schedule for one injected fault.
///
/// A rule matches a [`FaultSite`] when every set filter agrees; unset
/// filters are wildcards. The rule counts matches and fires on matches
/// `skip .. skip + max_fires`.
#[derive(Clone, Copy, Debug)]
pub struct FaultRule {
    /// Match only this verb class (`None` = any).
    pub kind: Option<VerbKind>,
    /// Match only this target node (`None` = any).
    pub node: Option<NodeId>,
    /// Match only offsets in `[start, end)` (`None` = any).
    pub range: Option<(u64, u64)>,
    /// Match only while the plan's phase (see [`FaultPlan::set_phase`])
    /// equals this value (`None` = any phase). Out-of-phase accesses are
    /// not counted toward `skip`, so "the Nth verb of migration step k"
    /// is exact.
    pub phase: Option<u32>,
    /// Number of matching verbs to let through before firing.
    pub skip: u64,
    /// Number of times to fire once armed (0 disables the rule).
    pub max_fires: u64,
    /// Action taken on each firing.
    pub action: FaultAction,
}

impl FaultRule {
    /// A rule with wildcard filters that fires `action` on the first match.
    pub fn new(action: FaultAction) -> Self {
        FaultRule {
            kind: None,
            node: None,
            range: None,
            phase: None,
            skip: 0,
            max_fires: 1,
            action,
        }
    }

    /// Restricts the rule to one verb class.
    pub fn on_kind(mut self, kind: VerbKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Restricts the rule to one target node.
    pub fn on_node(mut self, node: NodeId) -> Self {
        self.node = Some(node);
        self
    }

    /// Restricts the rule to accesses overlapping `[start, end)`.
    pub fn in_range(mut self, start: u64, end: u64) -> Self {
        self.range = Some((start, end));
        self
    }

    /// Restricts the rule to one plan phase (a chaos harness advances the
    /// plan's phase at protocol step boundaries, e.g. migrator steps, so
    /// a rule can target "the first write after the last copy batch").
    pub fn in_phase(mut self, phase: u32) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Lets `skip` matching verbs through before firing ("fail the Nth").
    pub fn after(mut self, skip: u64) -> Self {
        self.skip = skip;
        self
    }

    /// Fires at most `n` times (default 1).
    pub fn fires(mut self, n: u64) -> Self {
        self.max_fires = n;
        self
    }

    fn matches(&self, site: &FaultSite) -> bool {
        if let Some(k) = self.kind {
            if k != site.kind {
                return false;
            }
        }
        if let Some(n) = self.node {
            if n != site.node {
                return false;
            }
        }
        if let Some((start, end)) = self.range {
            let site_end = site.offset.saturating_add(site.len as u64);
            if site.offset >= end || site_end <= start {
                return false;
            }
        }
        true
    }
}

/// A fault that actually fired, for coverage reports.
#[derive(Clone, Copy, Debug)]
pub struct FiredFault {
    /// The intercepted access.
    pub site: FaultSite,
    /// The action that was taken.
    pub action: FaultAction,
    /// Index of the firing rule within the plan.
    pub rule: usize,
}

struct RuleState {
    rule: FaultRule,
    matched: u64,
    fired: u64,
}

/// An installable set of fault rules plus the log of fired faults.
///
/// Plans are shared via `Arc`: the same plan may be installed on several
/// clients and nodes, and the harness keeps its own handle to read the
/// firing log afterwards.
#[derive(Default)]
pub struct FaultPlan {
    rules: Mutex<Vec<RuleState>>,
    log: Mutex<Vec<FiredFault>>,
    /// Current protocol phase, consulted by phase-filtered rules
    /// (see [`FaultRule::in_phase`]).
    phase: AtomicU32,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Arc<Self> {
        Arc::new(FaultPlan::default())
    }

    /// A plan pre-loaded with `rules` (matched in order).
    pub fn with_rules(rules: Vec<FaultRule>) -> Arc<Self> {
        let plan = FaultPlan::new();
        for r in rules {
            plan.push(r);
        }
        plan
    }

    /// Appends a rule.
    pub fn push(&self, rule: FaultRule) {
        self.rules.lock().push(RuleState {
            rule,
            matched: 0,
            fired: 0,
        });
    }

    /// Removes all rules (the firing log is kept).
    pub fn clear(&self) {
        self.rules.lock().clear();
    }

    /// All faults fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.log.lock().clone()
    }

    /// Number of faults fired so far.
    pub fn fired_count(&self) -> usize {
        self.log.lock().len()
    }

    /// Advances the plan to protocol phase `p`: rules built with
    /// [`FaultRule::in_phase`] match only while the plan sits in their
    /// phase. The chaos harness calls this at migration step boundaries.
    pub fn set_phase(&self, p: u32) {
        self.phase.store(p, Ordering::Release);
    }

    /// The plan's current protocol phase (0 until [`FaultPlan::set_phase`]
    /// is called).
    pub fn phase(&self) -> u32 {
        self.phase.load(Ordering::Acquire)
    }

    /// Consults the plan for one access. Returns the action of the first
    /// rule that fires, or `None` to proceed normally. Match counters
    /// advance on every call, so "fail the Nth read" is exact even when
    /// earlier matches fired nothing.
    pub fn intercept(&self, site: FaultSite) -> Option<FaultAction> {
        let phase = self.phase.load(Ordering::Acquire);
        let mut rules = self.rules.lock();
        for (i, rs) in rules.iter_mut().enumerate() {
            if rs.rule.phase.is_some_and(|p| p != phase) {
                continue;
            }
            if !rs.rule.matches(&site) {
                continue;
            }
            let seq = rs.matched;
            rs.matched += 1;
            if seq < rs.rule.skip || rs.fired >= rs.rule.max_fires {
                continue;
            }
            rs.fired += 1;
            let action = rs.rule.action;
            drop(rules);
            self.log.lock().push(FiredFault {
                site,
                action,
                rule: i,
            });
            return Some(action);
        }
        None
    }

    /// Blocks for a [`FaultAction::Delay`]'s duration (helper for verb
    /// implementations).
    pub fn apply_delay(micros: u64) {
        std::thread::sleep(Duration::from_micros(micros));
    }
}

/// Where a client or a node keeps its installed [`FaultPlan`]: a locked
/// handle behind an armed flag, so a verb pays one relaxed load — no lock,
/// no reference count — while nothing is installed.
#[derive(Default)]
pub(crate) struct PlanSlot {
    plan: Mutex<Option<Arc<FaultPlan>>>,
    /// Mirrors `plan.is_some()`; written under the lock.
    armed: AtomicBool,
}

impl PlanSlot {
    /// Installs `plan` (`None` clears the slot).
    pub(crate) fn set(&self, plan: Option<Arc<FaultPlan>>) {
        let mut g = self.plan.lock();
        self.armed.store(plan.is_some(), Ordering::Release);
        *g = plan;
    }

    /// The installed plan, if any.
    #[inline]
    pub(crate) fn get(&self) -> Option<Arc<FaultPlan>> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.plan.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(kind: VerbKind, node: u16, offset: u64, len: usize) -> FaultSite {
        FaultSite {
            kind,
            node: NodeId(node),
            offset,
            len,
        }
    }

    #[test]
    fn fires_on_nth_match_only() {
        let plan = FaultPlan::with_rules(vec![FaultRule::new(FaultAction::Fail)
            .on_kind(VerbKind::Write)
            .after(2)]);
        let w = site(VerbKind::Write, 0, 64, 8);
        assert!(plan.intercept(site(VerbKind::Read, 0, 0, 8)).is_none());
        assert!(plan.intercept(w).is_none()); // match 0
        assert!(plan.intercept(w).is_none()); // match 1
        assert_eq!(plan.intercept(w), Some(FaultAction::Fail)); // match 2
        assert!(plan.intercept(w).is_none()); // max_fires exhausted
        assert_eq!(plan.fired_count(), 1);
        assert_eq!(plan.fired()[0].rule, 0);
    }

    #[test]
    fn node_and_range_filters() {
        let plan = FaultPlan::with_rules(vec![FaultRule::new(FaultAction::KillNode)
            .on_node(NodeId(3))
            .in_range(100, 200)
            .fires(10)]);
        assert!(plan.intercept(site(VerbKind::Write, 2, 150, 8)).is_none());
        assert!(plan.intercept(site(VerbKind::Write, 3, 300, 8)).is_none());
        // Overlapping access fires.
        assert_eq!(
            plan.intercept(site(VerbKind::Write, 3, 96, 8)),
            Some(FaultAction::KillNode)
        );
        // Access ending exactly at range start does not overlap.
        assert!(plan.intercept(site(VerbKind::Write, 3, 92, 8)).is_none());
    }

    #[test]
    fn rules_match_in_order() {
        let plan = FaultPlan::with_rules(vec![
            FaultRule::new(FaultAction::Delay(1)).on_kind(VerbKind::Cas),
            FaultRule::new(FaultAction::Fail).fires(2),
        ]);
        // First CAS hits rule 0; everything else falls through to rule 1.
        assert_eq!(
            plan.intercept(site(VerbKind::Cas, 0, 0, 8)),
            Some(FaultAction::Delay(1))
        );
        assert_eq!(
            plan.intercept(site(VerbKind::Cas, 0, 0, 8)),
            Some(FaultAction::Fail)
        );
        let log = plan.fired();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].rule, 0);
        assert_eq!(log[1].rule, 1);
    }

    #[test]
    fn phase_filter_gates_matching_and_counting() {
        let plan =
            FaultPlan::with_rules(vec![FaultRule::new(FaultAction::Fail).in_phase(2).after(1)]);
        let w = site(VerbKind::Write, 0, 0, 8);
        // Phase 0: out-of-phase accesses neither fire nor count.
        assert!(plan.intercept(w).is_none());
        assert!(plan.intercept(w).is_none());
        plan.set_phase(2);
        assert_eq!(plan.phase(), 2);
        assert!(plan.intercept(w).is_none()); // in-phase match 0 (skipped)
        assert_eq!(plan.intercept(w), Some(FaultAction::Fail)); // match 1
        plan.set_phase(3);
        assert!(plan.intercept(w).is_none());
    }

    #[test]
    fn clear_disarms() {
        let plan = FaultPlan::with_rules(vec![FaultRule::new(FaultAction::Fail)]);
        plan.clear();
        assert!(plan.intercept(site(VerbKind::Read, 0, 0, 8)).is_none());
    }
}
