//! Inlining compensation (paper §V-E).
//!
//! XRay sleds are inserted after inlining, so inlined functions cannot
//! be patched; and the source-level call graph does not know the
//! compiler's final inlining decisions. CaPI therefore post-processes
//! the selection:
//!
//! 1. approximate the inlined set: a selected function whose symbol
//!    cannot be found in the binary or any DSO "has been inlined at all
//!    call sites" (an approximation — symbols may be retained after
//!    inlining, which is exactly what COMDAT copies do in our compiler
//!    model);
//! 2. for each such function, walk up the call graph to the first
//!    non-inlined callers and select those instead, so the inlined
//!    function's time is still recorded "under the name of the
//!    non-inlined caller".

use capi_metacg::{CallGraph, NodeId, NodeSet};
use capi_objmodel::Binary;

/// What the compensation pass did (Table I's `#selected`/`#added`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompensationReport {
    /// Selected functions before post-processing (`#selected pre`).
    pub selected_pre: usize,
    /// Selected functions after removing inlined ones (`#selected`).
    pub selected_post: usize,
    /// Functions added as replacement callers (`#added`).
    pub added: usize,
    /// The removed (inlined) function names.
    pub removed_names: Vec<String>,
    /// The added caller names.
    pub added_names: Vec<String>,
}

/// Runs inlining compensation on `selection`, returning the compensated
/// set and a report.
pub fn compensate_inlining(
    graph: &CallGraph,
    binary: &Binary,
    selection: &NodeSet,
) -> (NodeSet, CompensationReport) {
    let mut report = CompensationReport {
        selected_pre: selection.count(),
        ..Default::default()
    };
    let mut out = selection.clone();
    let symbols = binary.symbol_names();
    let has_symbol = |id: NodeId| symbols.contains(graph.node(id).name.as_str());

    // Step 1: approximate the inlined set by missing symbols.
    let inlined: Vec<NodeId> = selection.iter().filter(|&id| !has_symbol(id)).collect();

    let mut added = graph.empty_set();
    for &node in &inlined {
        out.remove(node);
        report.removed_names.push(graph.node(node).name.clone());
        // Step 2: first available non-inlined callers, recursively.
        let mut stack: Vec<NodeId> = graph.callers(node).iter().map(|&(c, _)| c).collect();
        let mut visited = graph.empty_set();
        while let Some(caller) = stack.pop() {
            if !visited.insert(caller) {
                continue;
            }
            if has_symbol(caller) {
                if !out.contains(caller) && !added.contains(caller) {
                    added.insert(caller);
                    report.added_names.push(graph.node(caller).name.clone());
                }
            } else {
                stack.extend(graph.callers(caller).iter().map(|&(c, _)| c));
            }
        }
    }
    out.union_with(&added);
    report.selected_post = report.selected_pre - report.removed_names.len();
    report.added = report.added_names.len();
    report.removed_names.sort_unstable();
    report.added_names.sort_unstable();
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capi_appmodel::{LinkTarget, ProgramBuilder, SourceProgram};
    use capi_metacg::whole_program_callgraph;
    use capi_objmodel::{compile, CompileOptions};

    /// main → wrapper → tiny_kernel (auto-inlined into wrapper);
    /// main → chain_a (inlined) → chain_b (inlined) → big.
    fn program() -> SourceProgram {
        let mut b = ProgramBuilder::new("app");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(60)
            .calls("wrapper", 1)
            .calls("chain_a", 1)
            .finish();
        b.function("wrapper")
            .statements(50)
            .calls("tiny_kernel", 10)
            .finish();
        b.function("tiny_kernel").statements(2).flops(64).finish(); // auto-inlined
        b.function("chain_a")
            .statements(3)
            .calls("chain_b", 1)
            .finish(); // inlined
        b.function("chain_b").statements(3).calls("big", 1).finish(); // inlined
        b.function("big").statements(90).flops(256).finish();
        b.build().unwrap()
    }

    fn setup() -> (CallGraph, Binary) {
        let p = program();
        let g = whole_program_callgraph(&p);
        let bin = compile(&p, &CompileOptions::o2()).unwrap();
        (g, bin)
    }

    fn set_of(g: &CallGraph, names: &[&str]) -> NodeSet {
        let mut s = g.empty_set();
        for n in names {
            s.insert(g.node_id(n).unwrap());
        }
        s
    }

    #[test]
    fn inlined_leaf_replaced_by_caller() {
        let (g, bin) = setup();
        let sel = set_of(&g, &["tiny_kernel"]);
        let (out, report) = compensate_inlining(&g, &bin, &sel);
        assert_eq!(report.selected_pre, 1);
        assert_eq!(report.selected_post, 0);
        assert_eq!(report.added, 1);
        assert_eq!(report.added_names, vec!["wrapper"]);
        let names: Vec<&str> = out.iter().map(|i| g.node(i).name.as_str()).collect();
        assert_eq!(names, vec!["wrapper"]);
    }

    #[test]
    fn chain_of_inlined_callers_walks_to_first_surviving() {
        let (g, bin) = setup();
        // chain_b is inlined and its caller chain_a is inlined too: the
        // compensation must walk up to main.
        let sel = set_of(&g, &["chain_b"]);
        let (out, report) = compensate_inlining(&g, &bin, &sel);
        assert_eq!(report.added_names, vec!["main"]);
        assert!(out.contains(g.node_id("main").unwrap()));
        assert!(!out.contains(g.node_id("chain_b").unwrap()));
    }

    #[test]
    fn no_double_add_when_caller_already_selected() {
        let (g, bin) = setup();
        let sel = set_of(&g, &["tiny_kernel", "wrapper"]);
        let (out, report) = compensate_inlining(&g, &bin, &sel);
        assert_eq!(report.added, 0);
        assert_eq!(report.selected_post, 1);
        assert_eq!(out.count(), 1);
    }

    #[test]
    fn non_inlined_selection_is_untouched() {
        let (g, bin) = setup();
        let sel = set_of(&g, &["big", "main"]);
        let (out, report) = compensate_inlining(&g, &bin, &sel);
        assert_eq!(report.selected_pre, 2);
        assert_eq!(report.selected_post, 2);
        assert_eq!(report.added, 0);
        assert_eq!(out, sel);
    }

    #[test]
    fn table1_accounting_is_consistent() {
        let (g, bin) = setup();
        let sel = set_of(&g, &["tiny_kernel", "chain_a", "big"]);
        let (out, report) = compensate_inlining(&g, &bin, &sel);
        assert_eq!(report.selected_pre, 3);
        assert_eq!(report.selected_post, 1); // big survives
                                             // tiny_kernel → wrapper; chain_a → main.
        assert_eq!(report.added, 2);
        assert_eq!(out.count(), report.selected_post + report.added);
    }
}
