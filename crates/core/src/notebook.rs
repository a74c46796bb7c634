//! The EDA notebook: the artifact ATENA produces (paper §3, Figure 1) — a
//! chronological list of operations with verbal captions and result
//! displays, plus a tree illustration of the exploration paths.

use atena_dataframe::DataFrame;
use atena_env::{Display, EdaEnv, EnvConfig, OpOutcome, ResolvedOp, SessionTree};
use serde::Serialize;

/// One notebook cell: an operation and the display it produced.
#[derive(Debug, Clone)]
pub struct NotebookEntry {
    /// 1-based position in the notebook.
    pub index: usize,
    /// The operation.
    pub op: ResolvedOp,
    /// Verbal description shown next to the cell.
    pub caption: String,
    /// The materialized display after the operation.
    pub display: Display,
    /// Outcome (invalid ops are retained with a note so a replayed session
    /// is faithful; ATENA's own notebooks only contain applied ops).
    pub outcome: OpOutcome,
}

/// An auto-generated EDA notebook.
#[derive(Debug, Clone)]
pub struct Notebook {
    /// Human-readable dataset name (shown in the title).
    pub dataset_name: String,
    /// Notebook cells, chronological.
    pub entries: Vec<NotebookEntry>,
}

impl Notebook {
    /// The notebook of a session: one cell per logged operation, showing
    /// the display the session landed on. Invalid operations are kept with
    /// their outcome note.
    pub fn from_session(dataset_name: &str, session: &SessionTree) -> Notebook {
        let entries = session
            .ops()
            .iter()
            .enumerate()
            .map(|(i, applied)| NotebookEntry {
                index: i + 1,
                op: applied.op.clone(),
                caption: applied.op.caption(),
                display: session.display(applied.to).clone(),
                outcome: applied.outcome.clone(),
            })
            .collect();
        Notebook {
            dataset_name: dataset_name.to_string(),
            entries,
        }
    }

    /// Replay a sequence of resolved operations against a dataset in a
    /// fresh environment and return the notebook of that session.
    pub fn replay(dataset_name: &str, base: &DataFrame, ops: &[ResolvedOp]) -> Notebook {
        let mut env = EdaEnv::new(
            base.clone(),
            EnvConfig {
                episode_len: ops.len().max(1),
                ..EnvConfig::default()
            },
        );
        for op in ops {
            let preview = env.preview(op);
            env.commit(preview);
        }
        Notebook::from_session(dataset_name, env.session())
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the notebook has no cells.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Canonical view identities, in order — the "sentence" the A-EDA
    /// benchmark compares (only applied operations contribute views).
    pub fn views(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| e.outcome.is_applied())
            .map(|e| e.display.spec.canonical())
            .collect()
    }

    /// The operations, in order.
    pub fn ops(&self) -> Vec<ResolvedOp> {
        self.entries.iter().map(|e| e.op.clone()).collect()
    }

    /// Render the notebook as Markdown: title, one section per cell with
    /// the verbal caption and a result preview, and the session-tree
    /// illustration at the end.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# Auto-EDA for {}\n\n", self.dataset_name));
        for e in &self.entries {
            out.push_str(&format!("## [{}] {}\n\n", e.index, e.caption));
            out.push_str(&format!("`{}`\n\n", e.op));
            match &e.outcome {
                OpOutcome::Applied => {
                    let rows = e.display.result.n_rows();
                    out.push_str(&format!("{}\n", e.display.result.head(8)));
                    let chart = crate::viz::suggest_chart(&e.display);
                    if chart == crate::viz::ChartSpec::Table {
                        out.push_str(&format!("*{rows} result rows*\n\n"));
                    } else {
                        out.push_str(&format!(
                            "*{rows} result rows — suggested visualization: {}*\n\n",
                            chart.caption()
                        ));
                    }
                }
                OpOutcome::Invalid(reason) => {
                    out.push_str(&format!("*skipped — {reason}*\n\n"));
                }
                OpOutcome::BackAtRoot => {
                    out.push_str("*already at the raw dataset*\n\n");
                }
            }
        }
        out.push_str("## Exploration tree\n\n```\n");
        out.push_str(&self.tree_illustration());
        out.push_str("```\n");
        out
    }

    /// The dynamic tree-like illustration of the operations (paper Figure
    /// 1, right-hand side): displays as nodes, operations as edges.
    pub fn tree_illustration(&self) -> String {
        // Reconstruct the tree from the op sequence.
        #[derive(Default)]
        struct Node {
            children: Vec<(String, usize)>,
        }
        let mut nodes: Vec<Node> = vec![Node::default()];
        let mut current = 0usize;
        for e in &self.entries {
            match (&e.op, &e.outcome) {
                (ResolvedOp::Back, OpOutcome::Applied) => {
                    // Walk to the parent.
                    current = parent_of(&nodes, current).unwrap_or(0);
                }
                (op, OpOutcome::Applied) => {
                    nodes.push(Node::default());
                    let id = nodes.len() - 1;
                    let label = format!("[{}] {}", e.index, op);
                    nodes[current].children.push((label, id));
                    current = id;
                }
                _ => {}
            }
        }
        fn parent_of(nodes: &[Node], id: usize) -> Option<usize> {
            nodes
                .iter()
                .position(|n| n.children.iter().any(|(_, c)| *c == id))
        }
        fn render(nodes: &[Node], id: usize, prefix: &str, out: &mut String) {
            let n = &nodes[id];
            for (i, (label, child)) in n.children.iter().enumerate() {
                let last = i + 1 == n.children.len();
                out.push_str(prefix);
                out.push_str(if last { "└─ " } else { "├─ " });
                out.push_str(label);
                out.push('\n');
                let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
                render(nodes, *child, &child_prefix, out);
            }
        }
        let mut out = String::from("Raw Dataset\n");
        render(&nodes, 0, "", &mut out);
        out
    }

    /// Serializable summary (op strings, captions, view identities, row
    /// counts) for JSON export.
    pub fn summary(&self) -> NotebookSummary {
        NotebookSummary {
            dataset_name: self.dataset_name.clone(),
            cells: self
                .entries
                .iter()
                .map(|e| CellSummary {
                    index: e.index,
                    operation: e.op.to_string(),
                    caption: e.caption.clone(),
                    view: e.display.spec.canonical(),
                    result_rows: e.display.result.n_rows(),
                    applied: e.outcome.is_applied(),
                })
                .collect(),
        }
    }

    /// JSON export of the summary.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.summary()).expect("summary serializes")
    }
}

/// Serializable notebook summary.
#[derive(Debug, Clone, Serialize)]
pub struct NotebookSummary {
    /// Dataset name.
    pub dataset_name: String,
    /// Cell summaries.
    pub cells: Vec<CellSummary>,
}

/// Serializable cell summary.
#[derive(Debug, Clone, Serialize)]
pub struct CellSummary {
    /// 1-based index.
    pub index: usize,
    /// Operation string.
    pub operation: String,
    /// Verbal caption.
    pub caption: String,
    /// Canonical view identity.
    pub view: String,
    /// Rows in the result display.
    pub result_rows: usize,
    /// Whether the operation applied successfully.
    pub applied: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_dataframe::{AggFunc, AttrRole, CmpOp, Predicate};

    fn base() -> DataFrame {
        DataFrame::builder()
            .str(
                "airline",
                AttrRole::Categorical,
                (0..30).map(|i| Some(["AA", "DL", "UA"][i % 3])),
            )
            .int(
                "delay",
                AttrRole::Numeric,
                (0..30).map(|i| Some((i * 3 % 40) as i64)),
            )
            .build()
            .unwrap()
    }

    fn ops() -> Vec<ResolvedOp> {
        vec![
            ResolvedOp::Group {
                key: "airline".into(),
                func: AggFunc::Avg,
                agg: "delay".into(),
            },
            ResolvedOp::Back,
            ResolvedOp::Filter(Predicate::new("airline", CmpOp::Eq, "AA")),
            ResolvedOp::Group {
                key: "airline".into(),
                func: AggFunc::Count,
                agg: "delay".into(),
            },
        ]
    }

    #[test]
    fn replay_materializes_all_entries() {
        let nb = Notebook::replay("flights", &base(), &ops());
        assert_eq!(nb.len(), 4);
        assert!(nb.entries.iter().all(|e| e.outcome.is_applied()));
        // Third entry is the AA subset: 10 rows.
        assert_eq!(nb.entries[2].display.result.n_rows(), 10);
        // First entry: 3 airline groups.
        assert_eq!(nb.entries[0].display.result.n_rows(), 3);
    }

    #[test]
    fn views_skip_invalid_ops() {
        let mut ops = ops();
        // SUM over a string column is invalid.
        ops.push(ResolvedOp::Group {
            key: "airline".into(),
            func: AggFunc::Sum,
            agg: "airline".into(),
        });
        let nb = Notebook::replay("flights", &base(), &ops);
        assert_eq!(nb.len(), 5);
        assert_eq!(nb.views().len(), 4);
        assert!(!nb.entries[4].outcome.is_applied());
    }

    #[test]
    fn markdown_contains_captions_and_tree() {
        let nb = Notebook::replay("flights", &base(), &ops());
        let md = nb.to_markdown();
        assert!(md.contains("# Auto-EDA for flights"));
        assert!(md.contains("Group by 'airline'"));
        assert!(md.contains("Exploration tree"));
        assert!(md.contains("Raw Dataset"));
        assert!(md.contains("└─"));
    }

    #[test]
    fn tree_shows_branching() {
        let nb = Notebook::replay("flights", &base(), &ops());
        let tree = nb.tree_illustration();
        // After BACK, the filter branches off the root: two children.
        let root_children = tree
            .lines()
            .filter(|l| l.starts_with("├─") || l.starts_with("└─"))
            .count();
        assert_eq!(root_children, 2, "tree:\n{tree}");
    }

    #[test]
    fn json_round_trips_as_valid_json() {
        let nb = Notebook::replay("flights", &base(), &ops());
        let json = nb.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["dataset_name"], "flights");
        assert_eq!(v["cells"].as_array().unwrap().len(), 4);
    }

    #[test]
    fn session_notebook_renders_like_a_replay_of_its_ops() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let frame = base();
        let (mut backs, mut backs_at_root, mut invalid) = (0, 0, 0);
        for walk in 0..300u64 {
            let config = EnvConfig {
                episode_len: 12,
                seed: walk,
                ..EnvConfig::default()
            };
            let mut env = EdaEnv::new(frame.clone(), config);
            let mut rng = StdRng::seed_from_u64(walk);
            while !env.done() {
                let action = atena_reward::random_action(&env, &mut rng);
                env.step(&action);
            }
            for applied in env.session().ops() {
                match &applied.outcome {
                    OpOutcome::Applied if applied.op == ResolvedOp::Back => backs += 1,
                    OpOutcome::BackAtRoot => backs_at_root += 1,
                    OpOutcome::Invalid(_) => invalid += 1,
                    OpOutcome::Applied => {}
                }
            }
            let session = Notebook::from_session("flights", env.session());
            let replayed = Notebook::replay("flights", &frame, &session.ops());
            assert_eq!(session.to_markdown(), replayed.to_markdown(), "walk {walk}");
            assert_eq!(session.to_json(), replayed.to_json(), "walk {walk}");
        }
        // The walks exercise every outcome a session can log.
        assert!(
            backs > 0 && backs_at_root > 0 && invalid > 0,
            "{backs} BACK, {backs_at_root} BACK at root, {invalid} invalid"
        );
    }

    #[test]
    fn empty_notebook() {
        let nb = Notebook::replay("flights", &base(), &[]);
        assert!(nb.is_empty());
        assert!(nb.views().is_empty());
    }
}
