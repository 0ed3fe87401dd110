//! Compiled objects: the executable and its DSOs.

use crate::symbols::SymbolTable;
use capi_appmodel::{FunctionKind, MpiCall, Visibility};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Executable vs. shared object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectKind {
    /// The main executable. XRay always assigns it object ID 0 for
    /// backwards compatibility (paper §V-B1).
    Executable,
    /// A dynamic shared object; must use position-independent
    /// trampolines after relocation (paper §V-B2).
    SharedObject,
}

/// How a compiled call site dispatches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchKind {
    /// Direct call; single target.
    Direct,
    /// Virtual dispatch; the executor cycles deterministically through
    /// the override set.
    Virtual,
    /// Indirect call through a function pointer.
    Pointer,
}

/// A call site that survived inlining.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CompiledCallSite {
    /// Candidate target names (singleton for direct calls).
    pub targets: Vec<String>,
    /// Dispatch mechanism.
    pub dispatch: DispatchKind,
    /// Executions per invocation of the containing function.
    pub trips: u64,
}

/// A function as it exists in a compiled object (post-inlining).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CompiledFunction {
    /// Mangled name.
    pub name: String,
    /// Human-readable signature.
    pub demangled: String,
    /// Offset within the object.
    pub offset: u64,
    /// Code size in bytes.
    pub size: u32,
    /// Machine instruction count (XRay threshold pre-filter input).
    pub instructions: u32,
    /// Maximum loop nesting depth after inlining. XRay's pre-filter
    /// instruments loop-bearing functions regardless of size.
    pub loop_depth: u32,
    /// Symbol visibility.
    pub visibility: Visibility,
    /// Function role.
    pub kind: FunctionKind,
    /// Per-invocation compute cost in virtual ns, with all inlined callee
    /// bodies folded in.
    pub body_cost_ns: u64,
    /// Per-rank imbalance percentage (see `capi_appmodel::Behavior`).
    pub imbalance_pct: u32,
    /// MPI operation performed by this body, if it is an MPI stub.
    pub mpi: Option<MpiCall>,
    /// Call sites remaining after inlining.
    pub call_sites: Vec<CompiledCallSite>,
    /// Names of source functions whose bodies were folded into this one.
    /// Profiling events for those functions appear under this caller —
    /// the effect the paper's §V-E compensation relies on.
    pub inlined: Vec<String>,
    /// Number of return sites (each gets an exit sled).
    pub return_sites: u32,
}

/// A compiled object file (executable or DSO).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Object {
    /// File name, e.g. `icoFoam` or `libfiniteVolume.so`.
    pub name: String,
    /// Object kind.
    pub kind: ObjectKind,
    /// Functions with emitted bodies, in layout order.
    pub functions: Vec<CompiledFunction>,
    /// Symbol table.
    pub symtab: SymbolTable,
    /// Total code size in bytes.
    pub code_size: u64,
    #[serde(skip)]
    by_name: HashMap<String, u32>,
}

impl Object {
    /// Creates an object from laid-out functions.
    pub fn new(
        name: String,
        kind: ObjectKind,
        functions: Vec<CompiledFunction>,
        symtab: SymbolTable,
    ) -> Self {
        let code_size = functions
            .iter()
            .map(|f| f.offset + f.size as u64)
            .max()
            .unwrap_or(0);
        let by_name = functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i as u32))
            .collect();
        Self {
            name,
            kind,
            functions,
            symtab,
            code_size,
            by_name,
        }
    }

    /// Index of the function named `name`, if it has an emitted body.
    pub fn function_index(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Function by local index.
    pub fn function(&self, idx: u32) -> &CompiledFunction {
        &self.functions[idx as usize]
    }

    /// Function whose code contains `offset`.
    pub fn function_at_offset(&self, offset: u64) -> Option<(u32, &CompiledFunction)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| offset >= f.offset && offset < f.offset + f.size as u64)
            .map(|(i, f)| (i as u32, f))
    }

    /// Number of emitted functions.
    pub fn num_functions(&self) -> usize {
        self.functions.len()
    }

    /// Rebuilds the name index after deserialization.
    pub fn rebuild_index(&mut self) {
        self.by_name = self
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i as u32))
            .collect();
    }
}

/// A fully compiled program: one executable plus its DSOs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Binary {
    /// The main executable.
    pub executable: Object,
    /// Shared objects in link order.
    pub dsos: Vec<Object>,
}

impl Binary {
    /// Iterates over all objects, executable first.
    pub fn objects(&self) -> impl Iterator<Item = &Object> {
        std::iter::once(&self.executable).chain(self.dsos.iter())
    }

    /// Finds the object defining `name` (searches executable first, the
    /// dynamic-linker resolution order).
    pub fn defining_object(&self, name: &str) -> Option<(&Object, u32)> {
        self.objects()
            .find_map(|o| o.function_index(name).map(|i| (o, i)))
    }

    /// Whether any object emits a symbol body for `name` — the
    /// approximation CaPI's inlining compensation uses: "if a function
    /// symbol cannot be found, it has been inlined at all call sites"
    /// (paper §V-E).
    ///
    /// Scans every symbol table; a pass that asks about many names
    /// builds [`Binary::symbol_names`] once instead.
    pub fn has_symbol(&self, name: &str) -> bool {
        self.objects().any(|o| o.symtab.lookup(name).is_some())
    }

    /// Every name [`Binary::has_symbol`] answers `true` for, borrowed
    /// from the symbol tables: one pass over the symbols, then each
    /// presence query is a hash lookup.
    pub fn symbol_names(&self) -> HashSet<&str> {
        self.objects()
            .flat_map(|o| o.symtab.all())
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Total emitted functions across all objects.
    pub fn total_functions(&self) -> usize {
        self.objects().map(Object::num_functions).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::{SymKind, Symbol};

    fn func(name: &str, offset: u64, size: u32) -> CompiledFunction {
        CompiledFunction {
            name: name.into(),
            demangled: name.into(),
            offset,
            size,
            instructions: size / 4,
            loop_depth: 0,
            visibility: Visibility::Default,
            kind: FunctionKind::Normal,
            body_cost_ns: 10,
            imbalance_pct: 0,
            mpi: None,
            call_sites: vec![],
            inlined: vec![],
            return_sites: 1,
        }
    }

    fn object(name: &str, fns: Vec<CompiledFunction>) -> Object {
        let mut symtab = SymbolTable::new();
        for f in &fns {
            symtab.push(Symbol {
                name: f.name.clone(),
                offset: f.offset,
                size: f.size,
                visibility: f.visibility,
                kind: SymKind::Func,
            });
        }
        Object::new(name.into(), ObjectKind::SharedObject, fns, symtab)
    }

    #[test]
    fn function_lookup_by_name_and_offset() {
        let o = object("lib.so", vec![func("a", 0, 64), func("b", 64, 32)]);
        assert_eq!(o.function_index("b"), Some(1));
        let (idx, f) = o.function_at_offset(70).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(f.name, "b");
        assert!(o.function_at_offset(96).is_none());
    }

    #[test]
    fn code_size_spans_functions() {
        let o = object("lib.so", vec![func("a", 0, 64), func("b", 64, 32)]);
        assert_eq!(o.code_size, 96);
    }

    #[test]
    fn binary_resolution_prefers_executable() {
        let exe = Object::new(
            "app".into(),
            ObjectKind::Executable,
            vec![func("dup", 0, 64)],
            SymbolTable::new(),
        );
        let dso = object("lib.so", vec![func("dup", 0, 32)]);
        let bin = Binary {
            executable: exe,
            dsos: vec![dso],
        };
        let (obj, _) = bin.defining_object("dup").unwrap();
        assert_eq!(obj.kind, ObjectKind::Executable);
    }

    #[test]
    fn has_symbol_reflects_symtab_not_functions() {
        // A symbol can be retained even without a function body entry in
        // `functions` (e.g. address-taken inlined function).
        let mut symtab = SymbolTable::new();
        symtab.push(Symbol {
            name: "ghost".into(),
            offset: 0,
            size: 0,
            visibility: Visibility::Default,
            kind: SymKind::Func,
        });
        let exe = Object::new("app".into(), ObjectKind::Executable, vec![], symtab);
        let bin = Binary {
            executable: exe,
            dsos: vec![],
        };
        assert!(bin.has_symbol("ghost"));
        assert!(!bin.has_symbol("missing"));
        assert_eq!(bin.symbol_names(), HashSet::from(["ghost"]));
    }

    #[test]
    fn symbol_in_two_objects_is_one_name() {
        // A COMDAT copy emitted in the executable and in a DSO.
        let bin = Binary {
            executable: object("app", vec![func("dup", 0, 64), func("main", 64, 64)]),
            dsos: vec![object(
                "lib.so",
                vec![func("dup", 0, 32), func("leaf", 32, 32)],
            )],
        };
        assert_eq!(bin.symbol_names(), HashSet::from(["dup", "main", "leaf"]));
        for name in ["dup", "main", "leaf", "missing", ""] {
            assert_eq!(bin.has_symbol(name), bin.symbol_names().contains(name));
        }
    }
}
