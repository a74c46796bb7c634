//! The session tree: every display reached during an episode, with parent
//! links so `BACK` can retrace, plus the chronological operation log the
//! notebook is generated from.

use crate::action::ResolvedOp;
use crate::display::Display;
use serde::{Deserialize, Serialize};

/// What happened when an operation was applied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpOutcome {
    /// The operation produced (or returned to) a display.
    Applied,
    /// The operation was ill-typed or unresolvable; the display is
    /// unchanged and the agent is expected to be penalized.
    Invalid(String),
    /// BACK at the root display: a no-op.
    BackAtRoot,
}

impl OpOutcome {
    /// True for [`OpOutcome::Applied`].
    pub fn is_applied(&self) -> bool {
        matches!(self, OpOutcome::Applied)
    }
}

/// One entry of the chronological operation log.
#[derive(Debug, Clone)]
pub struct AppliedOp {
    /// The resolved operation.
    pub op: ResolvedOp,
    /// Its outcome.
    pub outcome: OpOutcome,
    /// Display node the operation was applied from.
    pub from: usize,
    /// Display node the session moved to.
    pub to: usize,
}

/// Arena of displays visited in an episode plus the operation log.
#[derive(Debug)]
pub struct SessionTree {
    displays: Vec<Display>,
    parents: Vec<Option<usize>>,
    current: usize,
    ops: Vec<AppliedOp>,
    /// Display id after each step, chronological; index 0 is the root
    /// before any operation.
    history: Vec<usize>,
}

impl SessionTree {
    /// New session rooted at `root`.
    pub fn new(root: Display) -> Self {
        Self {
            displays: vec![root],
            parents: vec![None],
            current: 0,
            ops: Vec::new(),
            history: vec![0],
        }
    }

    /// Id of the current display node.
    pub fn current_id(&self) -> usize {
        self.current
    }

    /// The current display.
    pub fn current(&self) -> &Display {
        &self.displays[self.current]
    }

    /// Display by node id.
    pub fn display(&self, id: usize) -> &Display {
        &self.displays[id]
    }

    /// Parent of a node (`None` for the root).
    pub fn parent_of(&self, id: usize) -> Option<usize> {
        self.parents[id]
    }

    /// Number of display nodes.
    pub fn n_displays(&self) -> usize {
        self.displays.len()
    }

    /// The chronological operation log.
    pub fn ops(&self) -> &[AppliedOp] {
        &self.ops
    }

    /// Display ids after each step (index 0 = root).
    pub fn history(&self) -> &[usize] {
        &self.history
    }

    /// Attach a new display under the current node and move to it.
    pub fn push_display(&mut self, op: ResolvedOp, display: Display) -> usize {
        let from = self.current;
        self.displays.push(display);
        self.parents.push(Some(from));
        let id = self.displays.len() - 1;
        self.current = id;
        self.history.push(id);
        self.ops.push(AppliedOp {
            op,
            outcome: OpOutcome::Applied,
            from,
            to: id,
        });
        id
    }

    /// Apply a BACK: move to the parent if any, else record a no-op.
    pub fn go_back(&mut self) -> OpOutcome {
        let from = self.current;
        match self.parents[from] {
            Some(p) => {
                self.current = p;
                self.history.push(p);
                self.ops.push(AppliedOp {
                    op: ResolvedOp::Back,
                    outcome: OpOutcome::Applied,
                    from,
                    to: p,
                });
                OpOutcome::Applied
            }
            None => {
                self.history.push(from);
                self.ops.push(AppliedOp {
                    op: ResolvedOp::Back,
                    outcome: OpOutcome::BackAtRoot,
                    from,
                    to: from,
                });
                OpOutcome::BackAtRoot
            }
        }
    }

    /// Record an invalid operation (display unchanged).
    pub fn record_invalid(&mut self, op: ResolvedOp, reason: String) {
        let at = self.current;
        self.history.push(at);
        self.ops.push(AppliedOp {
            op,
            outcome: OpOutcome::Invalid(reason),
            from: at,
            to: at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_dataframe::{AttrRole, CmpOp, DataFrame, Predicate};

    fn root_display() -> Display {
        let df = DataFrame::builder()
            .int("x", AttrRole::Numeric, vec![Some(1), Some(2), Some(3)])
            .build()
            .unwrap();
        Display::root(&df)
    }

    fn filter_op() -> ResolvedOp {
        ResolvedOp::Filter(Predicate::new("x", CmpOp::Gt, 1i64))
    }

    #[test]
    fn push_and_back() {
        let mut s = SessionTree::new(root_display());
        assert_eq!(s.current_id(), 0);
        let base = s.current().frame.clone();
        let d = Display::materialize(
            &base,
            s.current()
                .spec
                .with_predicate(Predicate::new("x", CmpOp::Gt, 1i64)),
        )
        .unwrap();
        let id = s.push_display(filter_op(), d);
        assert_eq!(id, 1);
        assert_eq!(s.current_id(), 1);
        assert_eq!(s.parent_of(1), Some(0));

        assert_eq!(s.go_back(), OpOutcome::Applied);
        assert_eq!(s.current_id(), 0);
        assert_eq!(s.history(), &[0, 1, 0]);
        assert_eq!(s.ops().len(), 2);
    }

    #[test]
    fn back_at_root_is_noop() {
        let mut s = SessionTree::new(root_display());
        assert_eq!(s.go_back(), OpOutcome::BackAtRoot);
        assert_eq!(s.current_id(), 0);
        assert_eq!(s.history(), &[0, 0]);
        assert!(matches!(s.ops()[0].outcome, OpOutcome::BackAtRoot));
    }

    #[test]
    fn invalid_keeps_display() {
        let mut s = SessionTree::new(root_display());
        s.record_invalid(filter_op(), "bad type".into());
        assert_eq!(s.current_id(), 0);
        assert_eq!(s.n_displays(), 1);
        assert!(matches!(&s.ops()[0].outcome, OpOutcome::Invalid(r) if r == "bad type"));
    }

    #[test]
    fn branching_after_back() {
        let mut s = SessionTree::new(root_display());
        let base = s.current().frame.clone();
        let d1 = Display::materialize(
            &base,
            s.current()
                .spec
                .with_predicate(Predicate::new("x", CmpOp::Gt, 1i64)),
        )
        .unwrap();
        s.push_display(filter_op(), d1);
        s.go_back();
        let d2 = Display::materialize(
            &base,
            s.current()
                .spec
                .with_predicate(Predicate::new("x", CmpOp::Lt, 3i64)),
        )
        .unwrap();
        let id2 = s.push_display(ResolvedOp::Filter(Predicate::new("x", CmpOp::Lt, 3i64)), d2);
        // Both children hang off the root.
        assert_eq!(s.parent_of(1), Some(0));
        assert_eq!(s.parent_of(id2), Some(0));
        assert_eq!(s.n_displays(), 3);
        let visited: Vec<usize> = s.history().to_vec();
        assert_eq!(visited, vec![0, 1, 0, 2]);
    }
}
