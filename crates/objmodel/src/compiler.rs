//! The simulated compiler: lowers a [`SourceProgram`] to a [`Binary`].
//!
//! The single most important behaviour reproduced here is the paper's
//! §V-E observation: *the compiler's inlining decisions do not coincide
//! with the `inline` keyword the call graph records*. Concretely:
//!
//! * small functions are **auto-inlined** at every direct call site even
//!   without the keyword; their bodies and symbols disappear from the
//!   binary entirely (think discarded weak template instantiations).
//!   Selecting such a function yields no profile data — this is what
//!   CaPI's inlining compensation repairs.
//! * `inline`-keyword functions are folded into their callers too, but a
//!   COMDAT out-of-line copy with a symbol is retained — the paper's
//!   caveat that "symbols may be retained after inlining", which is why
//!   symbol presence is only an approximation of the inline set.
//! * virtual, address-taken, recursive, `main` and MPI functions are
//!   never inlined.
//!
//! Inlining is *transitively folded*: an inlined callee's residual call
//! sites are lifted into the caller with multiplied trip counts, and its
//! body cost is merged, so the executor sees exactly the calls a real
//! optimized binary would make.

use crate::object::{Binary, CompiledCallSite, CompiledFunction, DispatchKind, Object, ObjectKind};
use crate::symbols::{SymKind, Symbol, SymbolTable};
use capi_appmodel::{CalleeRef, FunctionKind, LinkTarget, SourceFunction, SourceProgram, Sym};
use std::collections::HashMap;
use std::fmt;

/// Optimization level; governs auto-inlining aggressiveness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptLevel {
    /// No inlining at all.
    O0,
    /// Default optimization (the paper's OpenFOAM builds).
    O2,
    /// Aggressive optimization (the paper's LULESH builds).
    O3,
}

/// Compiler configuration.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Optimization level.
    pub opt_level: OptLevel,
    /// `inline`-keyword functions up to this many statements are folded
    /// into callers (an out-of-line COMDAT copy is still emitted).
    pub inline_keyword_max_statements: u32,
    /// Functions up to this many statements are auto-inlined and fully
    /// dropped from the binary, keyword or not.
    pub auto_inline_max_statements: u32,
    /// Functions the user marked *critical*: never inlined, so their
    /// instrumentation locations survive compilation — the paper's
    /// §VII-C suggested improvement ("an option to mark instrumentation
    /// locations before inlining for a sub-set of selected functions
    /// that are deemed critical by the user").
    pub never_inline: std::collections::HashSet<String>,
}

impl CompileOptions {
    /// `-O0`: no inlining.
    pub fn o0() -> Self {
        Self {
            opt_level: OptLevel::O0,
            inline_keyword_max_statements: 0,
            auto_inline_max_statements: 0,
            never_inline: Default::default(),
        }
    }

    /// `-O2` defaults (OpenFOAM's build flags in the paper).
    pub fn o2() -> Self {
        Self {
            opt_level: OptLevel::O2,
            inline_keyword_max_statements: 40,
            auto_inline_max_statements: 4,
            never_inline: Default::default(),
        }
    }

    /// `-O3` defaults (LULESH's build flags in the paper).
    pub fn o3() -> Self {
        Self {
            opt_level: OptLevel::O3,
            inline_keyword_max_statements: 60,
            auto_inline_max_statements: 8,
            never_inline: Default::default(),
        }
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self::o2()
    }
}

/// Compilation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The program defines no `main`.
    NoEntryPoint,
    /// A call site references an undefined function (programs should be
    /// validated before compilation; this is a backstop).
    UndefinedReference(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NoEntryPoint => write!(f, "no entry point (main)"),
            CompileError::UndefinedReference(n) => write!(f, "undefined reference to `{n}`"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The folded (post-inlining) representation of one function.
#[derive(Clone, Debug, Default)]
struct Folded {
    cost: u64,
    instructions: u64,
    loop_depth: u32,
    sites: Vec<CompiledCallSite>,
    inlined: Vec<String>,
}

/// Compiles `program` into a [`Binary`].
pub fn compile(program: &SourceProgram, opts: &CompileOptions) -> Result<Binary, CompileError> {
    program.entry().ok_or(CompileError::NoEntryPoint)?;

    // Dense indexing over all functions.
    let funcs: Vec<&SourceFunction> = program.iter_functions().collect();
    let index_of: HashMap<Sym, usize> =
        funcs.iter().enumerate().map(|(i, f)| (f.name, i)).collect();
    for f in &funcs {
        for site in &f.call_sites {
            for target in all_targets(&site.callee) {
                if !index_of.contains_key(&target) {
                    return Err(CompileError::UndefinedReference(
                        program.interner.resolve(target).to_string(),
                    ));
                }
            }
        }
    }

    let recursive = find_recursive(&funcs, &index_of);
    // A function can only disappear through inlining if something calls
    // it directly; an uncalled tiny function keeps its (dead) body.
    let mut called_directly = vec![false; funcs.len()];
    for f in &funcs {
        for site in &f.call_sites {
            if let CalleeRef::Direct(t) = &site.callee {
                called_directly[index_of[t]] = true;
            }
        }
    }
    let inline_class: Vec<InlineClass> = funcs
        .iter()
        .enumerate()
        .map(|(i, f)| {
            if opts.never_inline.contains(program.interner.resolve(f.name)) {
                return InlineClass::Emitted;
            }
            match classify(f, recursive[i], opts) {
                InlineClass::FoldedDropSymbol if !called_directly[i] => InlineClass::Emitted,
                c => c,
            }
        })
        .collect();

    // Fold inlined callees transitively, in dependency order.
    let mut folded: Vec<Option<Folded>> = vec![None; funcs.len()];
    for i in 0..funcs.len() {
        fold(i, program, &funcs, &index_of, &inline_class, &mut folded);
    }

    // Partition emitted functions by object.
    let exe_name = program.name.clone();
    let mut per_object: HashMap<String, Vec<CompiledFunction>> = HashMap::new();
    let mut object_order: Vec<(String, ObjectKind)> =
        vec![(exe_name.clone(), ObjectKind::Executable)];

    for (unit, f) in program.iter_with_units() {
        let i = index_of[&f.name];
        if inline_class[i] == InlineClass::FoldedDropSymbol {
            continue; // body and symbol dropped
        }
        let object_name = unit.target.object_name(&program.name).to_string();
        if let LinkTarget::Dso(dso) = &unit.target {
            if !object_order.iter().any(|(n, _)| n == dso) {
                object_order.push((dso.clone(), ObjectKind::SharedObject));
            }
        }
        let fd = folded[i].as_ref().expect("folded above").clone();
        let name = program.interner.resolve(f.name).to_string();
        per_object
            .entry(object_name)
            .or_default()
            .push(CompiledFunction {
                name,
                demangled: f.demangled.clone(),
                offset: 0, // assigned during layout
                size: 0,
                instructions: fd.instructions.min(u32::MAX as u64) as u32,
                loop_depth: fd.loop_depth,
                visibility: f.attrs.visibility,
                kind: f.attrs.kind,
                body_cost_ns: fd.cost,
                imbalance_pct: f.behavior.imbalance_pct,
                mpi: f.behavior.mpi,
                call_sites: fd.sites.clone(),
                inlined: fd.inlined.clone(),
                return_sites: 1 + (f.attrs.statements / 24).min(3),
            });
    }

    let mut objects = Vec::new();
    for (name, kind) in object_order {
        let fns = per_object.remove(&name).unwrap_or_default();
        objects.push(layout(name, kind, fns));
    }
    let executable = objects.remove(0);
    Ok(Binary {
        executable,
        dsos: objects,
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InlineClass {
    /// Emitted normally; calls to it stay calls.
    Emitted,
    /// Folded into callers; COMDAT copy with symbol retained.
    FoldedKeepSymbol,
    /// Folded into callers; body and symbol dropped.
    FoldedDropSymbol,
}

fn classify(f: &SourceFunction, recursive: bool, opts: &CompileOptions) -> InlineClass {
    if opts.opt_level == OptLevel::O0 {
        return InlineClass::Emitted;
    }
    let a = &f.attrs;
    let never = recursive
        || a.is_virtual
        || a.address_taken
        || matches!(
            a.kind,
            FunctionKind::Main | FunctionKind::MpiStub | FunctionKind::StaticInitializer
        );
    if never {
        return InlineClass::Emitted;
    }
    if a.statements <= opts.auto_inline_max_statements {
        // Tiny bodies vanish entirely, keyword or not.
        return InlineClass::FoldedDropSymbol;
    }
    if a.inline_keyword && a.statements <= opts.inline_keyword_max_statements {
        return InlineClass::FoldedKeepSymbol;
    }
    InlineClass::Emitted
}

fn all_targets(c: &CalleeRef) -> Vec<Sym> {
    match c {
        CalleeRef::Direct(s) => vec![*s],
        CalleeRef::Virtual { overrides, .. } => overrides.clone(),
        CalleeRef::Pointer { candidates, .. } => candidates.clone(),
    }
}

/// Marks functions participating in direct-call recursion (self loops or
/// larger cycles); such functions are never inlined, which also makes the
/// inlined-callee relation acyclic.
fn find_recursive(funcs: &[&SourceFunction], index_of: &HashMap<Sym, usize>) -> Vec<bool> {
    const UNVISITED: u32 = u32::MAX;
    let n = funcs.len();
    let direct: Vec<Vec<usize>> = funcs
        .iter()
        .map(|f| {
            f.call_sites
                .iter()
                .filter_map(|s| match &s.callee {
                    CalleeRef::Direct(t) => Some(index_of[t]),
                    _ => None,
                })
                .collect()
        })
        .collect();

    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next = 0u32;
    let mut recursive = vec![false; n];
    let mut work: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        work.push((root, 0));
        while let Some(&mut (v, ref mut ci)) = work.last_mut() {
            if *ci == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < direct[v].len() {
                let w = direct[v][*ci];
                *ci += 1;
                if index[w] == UNVISITED {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&mut (p, _)) = work.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let cyclic = comp.len() > 1 || direct[comp[0]].contains(&comp[0]); // self loop
                    if cyclic {
                        for w in comp {
                            recursive[w] = true;
                        }
                    }
                }
            }
        }
    }
    recursive
}

/// Computes the folded representation of function `i` (iterative, memoized).
fn fold(
    start: usize,
    program: &SourceProgram,
    funcs: &[&SourceFunction],
    index_of: &HashMap<Sym, usize>,
    class: &[InlineClass],
    folded: &mut [Option<Folded>],
) {
    // Post-order DFS over inlined direct callees.
    let mut stack = vec![(start, false)];
    while let Some((i, children_done)) = stack.pop() {
        if folded[i].is_some() {
            continue;
        }
        if !children_done {
            stack.push((i, true));
            for site in &funcs[i].call_sites {
                if let CalleeRef::Direct(t) = &site.callee {
                    let ti = index_of[t];
                    if class[ti] != InlineClass::Emitted && folded[ti].is_none() {
                        stack.push((ti, false));
                    }
                }
            }
            continue;
        }
        let f = funcs[i];
        let mut out = Folded {
            cost: f.behavior.body_cost_ns,
            instructions: f.attrs.instructions as u64,
            loop_depth: f.attrs.loop_depth,
            sites: Vec::new(),
            inlined: Vec::new(),
        };
        for site in &f.call_sites {
            match &site.callee {
                CalleeRef::Direct(t) => {
                    let ti = index_of[t];
                    if class[ti] != InlineClass::Emitted {
                        let sub = folded[ti].as_ref().expect("post-order").clone();
                        out.cost = out.cost.saturating_add(site.trips.saturating_mul(sub.cost));
                        out.instructions = out.instructions.saturating_add(sub.instructions);
                        out.loop_depth = out.loop_depth.max(sub.loop_depth);
                        for s in &sub.sites {
                            out.sites.push(CompiledCallSite {
                                targets: s.targets.clone(),
                                dispatch: s.dispatch,
                                trips: s.trips.saturating_mul(site.trips),
                            });
                        }
                        out.inlined.push(program.interner.resolve(*t).to_string());
                        out.inlined.extend(sub.inlined.iter().cloned());
                    } else {
                        out.sites.push(CompiledCallSite {
                            targets: vec![program.interner.resolve(*t).to_string()],
                            dispatch: DispatchKind::Direct,
                            trips: site.trips,
                        });
                    }
                }
                CalleeRef::Virtual { overrides, .. } => {
                    out.sites.push(CompiledCallSite {
                        targets: overrides
                            .iter()
                            .map(|o| program.interner.resolve(*o).to_string())
                            .collect(),
                        dispatch: DispatchKind::Virtual,
                        trips: site.trips,
                    });
                }
                CalleeRef::Pointer { candidates, .. } => {
                    out.sites.push(CompiledCallSite {
                        targets: candidates
                            .iter()
                            .map(|c| program.interner.resolve(*c).to_string())
                            .collect(),
                        dispatch: DispatchKind::Pointer,
                        trips: site.trips,
                    });
                }
            }
        }
        folded[i] = Some(out);
    }
}

/// Assigns offsets/sizes and builds the symbol table.
fn layout(name: String, kind: ObjectKind, mut fns: Vec<CompiledFunction>) -> Object {
    const BYTES_PER_INSTRUCTION: u64 = 4;
    const ALIGN: u64 = 16;
    let mut offset = 0u64;
    let mut symtab = SymbolTable::new();
    for f in &mut fns {
        f.offset = offset;
        f.size = (f.instructions as u64 * BYTES_PER_INSTRUCTION).max(ALIGN) as u32;
        offset += f.size as u64;
        offset = offset.div_ceil(ALIGN) * ALIGN;
        symtab.push(Symbol {
            name: f.name.clone(),
            offset: f.offset,
            size: f.size,
            visibility: f.visibility,
            kind: if f.kind == FunctionKind::StaticInitializer {
                SymKind::StaticInit
            } else {
                SymKind::Func
            },
        });
    }
    Object::new(name, kind, fns, symtab)
}

/// Estimates a full (re)compilation time in virtual nanoseconds.
///
/// Calibrated so an OpenFOAM-scale program lands near the paper's "approx.
/// 50 minutes for a full recompilation" (§VII-A) and LULESH near a couple
/// of minutes. Used by the refinement-workflow turnaround comparison.
pub fn estimate_compile_time(program: &SourceProgram, opts: &CompileOptions) -> u64 {
    const TU_BASE_NS: u64 = 1_200_000_000; // 1.2 s toolchain overhead per TU
    const PER_STATEMENT_NS: u64 = 2_200_000; // 2.2 ms per statement
    let opt_factor = match opts.opt_level {
        OptLevel::O0 => 40,
        OptLevel::O2 => 100,
        OptLevel::O3 => 130,
    };
    let mut total = 0u64;
    for unit in &program.units {
        let stmts: u64 = unit
            .functions
            .iter()
            .map(|f| f.attrs.statements as u64)
            .sum();
        total += TU_BASE_NS + stmts * PER_STATEMENT_NS * opt_factor / 100;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use capi_appmodel::{MpiCall, ProgramBuilder};

    fn compile_src(build: impl FnOnce(&mut ProgramBuilder)) -> Binary {
        let mut b = ProgramBuilder::new("app");
        build(&mut b);
        let p = b.build().expect("valid test program");
        let bin = compile(&p, &CompileOptions::o2()).expect("compiles");
        // Every case below also pins the bulk view to the per-name scan.
        let names = bin.symbol_names();
        for f in p.iter_functions() {
            let name = p.interner.resolve(f.name);
            assert_eq!(bin.has_symbol(name), names.contains(name), "{name}");
        }
        bin
    }

    #[test]
    fn tiny_functions_are_auto_inlined_and_dropped() {
        let bin = compile_src(|b| {
            b.unit("m.cc", LinkTarget::Executable);
            b.function("main")
                .main()
                .statements(50)
                .calls("tiny", 10)
                .finish();
            b.function("tiny").statements(2).cost(7).finish();
        });
        assert!(!bin.has_symbol("tiny"));
        let main = bin
            .executable
            .function(bin.executable.function_index("main").unwrap());
        assert!(main.inlined.contains(&"tiny".to_string()));
        assert!(main.call_sites.is_empty());
        // Cost folded: default 100 + 10 * 7.
        assert_eq!(main.body_cost_ns, 100 + 70);
    }

    #[test]
    fn keyword_inlined_keeps_comdat_symbol() {
        let bin = compile_src(|b| {
            b.unit("m.cc", LinkTarget::Executable);
            b.function("main")
                .main()
                .statements(50)
                .calls("helper", 2)
                .finish();
            b.function("helper")
                .statements(20)
                .inline_keyword()
                .cost(30)
                .finish();
        });
        assert!(bin.has_symbol("helper"), "COMDAT copy retained");
        let main = bin
            .executable
            .function(bin.executable.function_index("main").unwrap());
        assert!(main.inlined.contains(&"helper".to_string()));
        assert!(main.call_sites.is_empty());
    }

    #[test]
    fn transitive_fold_lifts_residual_sites() {
        let bin = compile_src(|b| {
            b.unit("m.cc", LinkTarget::Executable);
            b.function("main")
                .main()
                .statements(50)
                .calls("mid", 3)
                .finish();
            // mid is tiny: inlined; its call to big survives, multiplied.
            b.function("mid")
                .statements(2)
                .cost(1)
                .calls("big", 5)
                .finish();
            b.function("big").statements(80).cost(1000).finish();
        });
        let main = bin
            .executable
            .function(bin.executable.function_index("main").unwrap());
        assert_eq!(main.call_sites.len(), 1);
        assert_eq!(main.call_sites[0].targets, vec!["big".to_string()]);
        assert_eq!(main.call_sites[0].trips, 15); // 3 * 5
        assert!(!bin.has_symbol("mid"));
        assert!(bin.has_symbol("big"));
    }

    #[test]
    fn recursive_functions_are_not_inlined() {
        let bin = compile_src(|b| {
            b.unit("m.cc", LinkTarget::Executable);
            b.function("main")
                .main()
                .statements(50)
                .calls("fib", 1)
                .finish();
            b.function("fib").statements(3).calls("fib", 2).finish();
        });
        assert!(bin.has_symbol("fib"));
        let main = bin
            .executable
            .function(bin.executable.function_index("main").unwrap());
        assert_eq!(main.call_sites.len(), 1);
    }

    #[test]
    fn mutual_recursion_not_inlined() {
        let bin = compile_src(|b| {
            b.unit("m.cc", LinkTarget::Executable);
            b.function("main")
                .main()
                .statements(50)
                .calls("even", 1)
                .finish();
            b.function("even").statements(2).calls("odd", 1).finish();
            b.function("odd").statements(2).calls("even", 1).finish();
        });
        assert!(bin.has_symbol("even"));
        assert!(bin.has_symbol("odd"));
    }

    #[test]
    fn virtual_and_address_taken_never_dropped() {
        let bin = compile_src(|b| {
            b.unit("m.cc", LinkTarget::Executable);
            b.function("main")
                .main()
                .statements(50)
                .calls_virtual("B::go", &["D::go"], 1)
                .calls_pointer(&["cb"], true, 1)
                .finish();
            b.function("D::go").statements(2).virtual_method().finish();
            b.function("cb").statements(2).address_taken().finish();
        });
        assert!(bin.has_symbol("D::go"));
        assert!(bin.has_symbol("cb"));
    }

    #[test]
    fn o0_disables_all_inlining() {
        let mut b = ProgramBuilder::new("app");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(50)
            .calls("tiny", 1)
            .finish();
        b.function("tiny").statements(2).finish();
        let p = b.build().unwrap();
        let bin = compile(&p, &CompileOptions::o0()).unwrap();
        assert!(bin.has_symbol("tiny"));
    }

    #[test]
    fn dso_partitioning_and_layout() {
        let bin = compile_src(|b| {
            b.unit("m.cc", LinkTarget::Executable);
            b.function("main")
                .main()
                .statements(50)
                .calls("solve", 1)
                .finish();
            b.unit("solver.cc", LinkTarget::Dso("libsolver.so".into()));
            b.function("solve")
                .statements(60)
                .instructions(400)
                .finish();
            b.function("helper2")
                .statements(60)
                .instructions(200)
                .finish();
        });
        assert_eq!(bin.dsos.len(), 1);
        assert_eq!(bin.dsos[0].name, "libsolver.so");
        assert_eq!(bin.dsos[0].num_functions(), 2);
        // Offsets are distinct and aligned.
        let f0 = bin.dsos[0].function(0);
        let f1 = bin.dsos[0].function(1);
        assert!(f1.offset >= f0.offset + f0.size as u64);
        assert_eq!(f1.offset % 16, 0);
    }

    #[test]
    fn mpi_stubs_survive_with_behavior() {
        let bin = compile_src(|b| {
            b.unit("m.cc", LinkTarget::Executable);
            b.function("main")
                .main()
                .statements(50)
                .calls("MPI_Init", 1)
                .finish();
            b.function("MPI_Init")
                .statements(1)
                .mpi(MpiCall::Init)
                .finish();
        });
        let (obj, idx) = bin.defining_object("MPI_Init").unwrap();
        assert_eq!(obj.function(idx).mpi, Some(MpiCall::Init));
    }

    #[test]
    fn undefined_reference_is_detected() {
        let mut b = ProgramBuilder::new("app");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main").main().calls("ghost", 1).finish();
        let p = b.build_unchecked();
        assert!(matches!(
            compile(&p, &CompileOptions::o2()),
            Err(CompileError::UndefinedReference(n)) if n == "ghost"
        ));
    }

    #[test]
    fn recompile_estimate_scales_with_statements() {
        let mut small = ProgramBuilder::new("s");
        small.unit("a.cc", LinkTarget::Executable);
        small.function("main").main().statements(10).finish();
        let small = small.build().unwrap();

        let mut big = ProgramBuilder::new("b");
        for u in 0..50 {
            big.unit(format!("u{u}.cc"), LinkTarget::Executable);
            if u == 0 {
                big.function("main").main().statements(500).finish();
            } else {
                big.function(&format!("f{u}")).statements(500).finish();
            }
        }
        let big = big.build().unwrap();
        let o2 = CompileOptions::o2();
        assert!(estimate_compile_time(&big, &o2) > 20 * estimate_compile_time(&small, &o2));
    }

    #[test]
    fn never_inline_protects_critical_functions() {
        // Paper §VII-C: user-marked critical functions keep their
        // instrumentation locations through compilation.
        let mut b = ProgramBuilder::new("app");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(50)
            .calls("tiny", 10)
            .finish();
        b.function("tiny").statements(2).cost(7).finish();
        let p = b.build().unwrap();
        let mut opts = CompileOptions::o2();
        opts.never_inline.insert("tiny".into());
        let bin = compile(&p, &opts).unwrap();
        assert!(
            bin.has_symbol("tiny"),
            "critical function survives inlining"
        );
        let main = bin
            .executable
            .function(bin.executable.function_index("main").unwrap());
        assert!(main.inlined.is_empty());
        assert_eq!(main.call_sites.len(), 1);
    }

    #[test]
    fn loop_depth_propagates_through_inlining() {
        let bin = compile_src(|b| {
            b.unit("m.cc", LinkTarget::Executable);
            b.function("main")
                .main()
                .statements(50)
                .calls("loopy", 1)
                .finish();
            b.function("loopy").statements(3).loop_depth(2).finish();
        });
        let main = bin
            .executable
            .function(bin.executable.function_index("main").unwrap());
        assert_eq!(main.loop_depth, 2);
    }
}
