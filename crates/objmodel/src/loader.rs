//! Simulated process and dynamic loader.
//!
//! The paper's DynCaPI resolves symbols by "examining the virtual memory
//! layout of the running process" and translating per-object symbol
//! addresses to their mapped locations (§V-C1, symbol injection). This
//! module provides that substrate: objects are loaded at page-aligned
//! base addresses (DSOs at *relocated* bases — which is why trampolines
//! must be position-independent, §V-B2), symbols are bound in dynamic-
//! linker resolution order, and the process can produce a
//! `/proc/<pid>/maps`-style listing.
//!
//! Beyond the static startup picture, the loader models the lifecycle a
//! real runtime linker manages: `dlopen` with NEEDED dependencies,
//! `dlclose` that refuses (or defers) while dependents remain, symbol
//! interposition (a later-loaded object shadowing an earlier symbol in
//! resolution order), rebuild-and-reload, and a deterministic
//! [`FaultPlan`] hook that makes loader failures scriptable.
//!
//! What every call site binds to is a function of that load state alone,
//! so the process also holds the [`Bindings`] of its current state
//! ([`Process::bindings`]): built on first use, shared by `Arc`, and
//! dropped by every operation that changes what is mapped or in which
//! order it resolves — a successful `dlopen*`, `dlclose`,
//! `dlclose_deferred`, `reload`, and the cascade finalization behind
//! them. Refused and faulted calls change nothing and keep it.

use crate::bindings::Bindings;
use crate::fault::{FaultKind, FaultPlan, FiredFault};
use crate::memory::{AddressSpace, MemError, PagePerms, PAGE_SIZE};
use crate::object::{Binary, Object, ObjectKind};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Preferred base of the main executable.
pub const EXE_BASE: u64 = 0x0040_0000;
/// Base of the DSO mapping area; every DSO is relocated here, away from
/// its preferred (link-time) base of 0.
pub const DSO_AREA: u64 = 0x7f00_0000_0000;
/// Gap between consecutive DSO mappings.
const DSO_STRIDE: u64 = 0x0100_0000;

/// Resolved function location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuncAddr {
    /// Index into the process' loaded-object list (0 = executable).
    pub object: usize,
    /// Function index within the object.
    pub func: u32,
    /// Absolute virtual address.
    pub addr: u64,
}

/// Loader errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// Mapping failed.
    Mem(MemError),
    /// `dlclose` on an object that is not loaded.
    NotLoaded(String),
    /// `dlopen` of an already-loaded object.
    AlreadyLoaded(String),
    /// `dlclose` on an object other loaded objects still depend on.
    HasDependents {
        /// The object being closed.
        name: String,
        /// Loaded objects with a NEEDED edge on it, in load order.
        dependents: Vec<String>,
    },
    /// `dlopen` with a NEEDED dependency that is not loaded.
    MissingDependency {
        /// The object being opened.
        name: String,
        /// The dependency that is absent.
        needed: String,
    },
    /// A scripted [`FaultPlan`] fault fired.
    Fault {
        /// Which fault class fired.
        kind: FaultKind,
        /// The object the faulting operation targeted.
        name: String,
    },
}

impl LoadError {
    /// Stable machine-readable tag, in the `PersistError::kind()` mold.
    pub fn kind(&self) -> &'static str {
        match self {
            LoadError::Mem(_) => "mem",
            LoadError::NotLoaded(_) => "not_loaded",
            LoadError::AlreadyLoaded(_) => "already_loaded",
            LoadError::HasDependents { .. } => "has_dependents",
            LoadError::MissingDependency { .. } => "missing_dependency",
            LoadError::Fault { kind, .. } => kind.kind(),
        }
    }
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Mem(e) => write!(f, "mapping failure: {e}"),
            LoadError::NotLoaded(n) => write!(f, "object `{n}` is not loaded"),
            LoadError::AlreadyLoaded(n) => write!(f, "object `{n}` is already loaded"),
            LoadError::HasDependents { name, dependents } => write!(
                f,
                "object `{name}` still has dependents: {}",
                dependents.join(", ")
            ),
            LoadError::MissingDependency { name, needed } => {
                write!(f, "object `{name}` needs `{needed}`, which is not loaded")
            }
            LoadError::Fault { kind, name } => {
                write!(f, "injected fault `{kind}` on object `{name}`")
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for LoadError {
    fn from(e: MemError) -> Self {
        LoadError::Mem(e)
    }
}

/// What `dlclose_deferred` did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseOutcome {
    /// The object had no dependents and was unloaded immediately.
    Closed,
    /// Dependents remain: the object left symbol resolution but stays
    /// mapped until its last dependent closes (deferred finalization).
    Deferred,
}

/// One loaded object: shared image + its base address.
#[derive(Clone, Debug)]
pub struct LoadedObject {
    /// The object image (shared; images are immutable once compiled).
    pub image: Arc<Object>,
    /// Load base address.
    pub base: u64,
    /// Whether the object was loaded at its preferred base (true only
    /// for the executable). Relocated objects require GOT-relative
    /// addressing in trampolines.
    pub at_preferred_base: bool,
    /// Deferred finalization: `dlclose_deferred` was called while
    /// dependents remained. The object stays mapped (its code is still
    /// reachable from dependents) but no longer participates in symbol
    /// resolution; it is unmapped when the last dependent closes.
    pub pending_fini: bool,
}

impl LoadedObject {
    /// Absolute address of a function.
    pub fn func_addr(&self, idx: u32) -> u64 {
        self.base + self.image.function(idx).offset
    }
}

/// A `/proc/<pid>/maps`-style entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapEntry {
    /// Mapping base.
    pub base: u64,
    /// Mapping length.
    pub len: u64,
    /// Backing object name.
    pub path: String,
}

/// The simulated process.
#[derive(Clone, Debug)]
pub struct Process {
    /// Loaded objects; index 0 is always the executable.
    objects: Vec<Option<LoadedObject>>,
    /// The address space with page permissions.
    pub memory: AddressSpace,
    next_dso_slot: u64,
    /// Symbol-resolution scope: object indices in lookup order. The
    /// executable is always first; `dlopen` appends, `dlopen_interpose`
    /// inserts right after the executable (LD_PRELOAD position).
    resolution_order: Vec<usize>,
    /// NEEDED edges as (dependent, dependency) object names.
    deps: Vec<(String, String)>,
    /// Scripted loader faults (dlopen-class and session-driven kinds;
    /// mprotect faults move into the address space on installation).
    fault_plan: Option<FaultPlan>,
    /// Total `dlopen` calls issued (the dlopen-fault clock).
    dlopen_calls: u64,
    /// Faults that fired in this loader, for audit.
    fault_log: Vec<FiredFault>,
    /// Call bindings of the current load state; emptied by every change
    /// to `objects` or `resolution_order`.
    bindings: OnceLock<Arc<Bindings>>,
}

impl Process {
    /// Creates a process with `exe` mapped at its preferred base.
    pub fn launch(exe: Arc<Object>) -> Result<Self, LoadError> {
        assert_eq!(
            exe.kind,
            ObjectKind::Executable,
            "launch requires an executable"
        );
        let mut memory = AddressSpace::new();
        memory.map(EXE_BASE, exe.code_size.max(1), PagePerms::RX, &exe.name)?;
        Ok(Self {
            objects: vec![Some(LoadedObject {
                image: exe,
                base: EXE_BASE,
                at_preferred_base: true,
                pending_fini: false,
            })],
            memory,
            next_dso_slot: 0,
            resolution_order: vec![0],
            deps: Vec::new(),
            fault_plan: None,
            dlopen_calls: 0,
            fault_log: Vec::new(),
            bindings: OnceLock::new(),
        })
    }

    /// Convenience: launches a process and `dlopen`s every DSO of `bin`
    /// (the usual `ld.so` startup for NEEDED entries).
    pub fn launch_binary(bin: &Binary) -> Result<Self, LoadError> {
        let mut p = Self::launch(Arc::new(bin.executable.clone()))?;
        for dso in &bin.dsos {
            p.dlopen(Arc::new(dso.clone()))?;
        }
        Ok(p)
    }

    /// Installs a fault plan: `mprotect`-class faults are scheduled on
    /// the address space (they fire inside [`AddressSpace::mprotect`]);
    /// everything else stays with the loader. Replaces any prior plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for f in plan.of_kinds(&[FaultKind::MprotectFail]) {
            self.memory.schedule_mprotect_fault(f.at);
        }
        self.fault_plan = Some(plan);
    }

    /// The installed fault plan's remaining (unfired) faults, if any.
    /// The session layer drains [`FaultKind::UnloadRace`] entries here.
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.fault_plan.as_mut()
    }

    /// Loader faults that fired, in firing order.
    pub fn fired_faults(&self) -> &[FiredFault] {
        &self.fault_log
    }

    /// Total `dlopen` calls issued so far (the dlopen-fault clock).
    pub fn dlopen_calls(&self) -> u64 {
        self.dlopen_calls
    }

    /// Loads a shared object at a relocated base; returns its index.
    pub fn dlopen(&mut self, dso: Arc<Object>) -> Result<usize, LoadError> {
        self.dlopen_inner(dso, &[], false)
    }

    /// Loads a shared object whose NEEDED entries are `needed` (by
    /// object name). Every dependency must already be loaded; the edges
    /// then guard `dlclose` ordering.
    pub fn dlopen_needed(&mut self, dso: Arc<Object>, needed: &[&str]) -> Result<usize, LoadError> {
        self.dlopen_inner(dso, needed, false)
    }

    /// Loads a shared object *interposed*: it enters symbol resolution
    /// right after the executable, shadowing same-named symbols of every
    /// earlier-loaded DSO (the LD_PRELOAD position).
    pub fn dlopen_interpose(&mut self, dso: Arc<Object>) -> Result<usize, LoadError> {
        self.dlopen_inner(dso, &[], true)
    }

    fn dlopen_inner(
        &mut self,
        dso: Arc<Object>,
        needed: &[&str],
        interpose: bool,
    ) -> Result<usize, LoadError> {
        let at = self.dlopen_calls;
        self.dlopen_calls += 1;
        // Scripted dlopen-class faults fire first, at their exact index,
        // regardless of what the call would otherwise have done.
        let dlopen_kinds = [
            FaultKind::DlopenOom,
            FaultKind::Relocation,
            FaultKind::PartialLoad,
        ];
        if let Some(f) = self
            .fault_plan
            .as_mut()
            .and_then(|p| p.take_matching(at, &dlopen_kinds))
        {
            return Err(self.fire_dlopen_fault(f.kind, at, dso.as_ref(), needed, interpose));
        }
        if self.loaded_index(&dso.name).is_some() {
            return Err(LoadError::AlreadyLoaded(dso.name.clone()));
        }
        for n in needed {
            if self.loaded_index(n).is_none() {
                return Err(LoadError::MissingDependency {
                    name: dso.name.clone(),
                    needed: n.to_string(),
                });
            }
        }
        let base = DSO_AREA + self.next_dso_slot * DSO_STRIDE;
        self.memory
            .map(base, dso.code_size.max(1), PagePerms::RX, &dso.name)?;
        self.next_dso_slot += 1;
        let name = dso.name.clone();
        let entry = LoadedObject {
            image: dso,
            base,
            at_preferred_base: false,
            pending_fini: false,
        };
        // Reuse a vacated slot if any (dlclose leaves holes so indices of
        // other objects remain stable).
        let idx = if let Some(i) = self.objects.iter().position(Option::is_none) {
            self.objects[i] = Some(entry);
            i
        } else {
            self.objects.push(Some(entry));
            self.objects.len() - 1
        };
        if interpose {
            // Position 1: behind the executable, ahead of every DSO.
            self.resolution_order.insert(1, idx);
        } else {
            self.resolution_order.push(idx);
        }
        for n in needed {
            self.deps.push((name.clone(), n.to_string()));
        }
        self.bindings.take();
        Ok(idx)
    }

    /// Applies one scripted dlopen-class fault, leaving the process state
    /// exactly as before the call (counters and audit log aside).
    fn fire_dlopen_fault(
        &mut self,
        kind: FaultKind,
        at: u64,
        dso: &Object,
        _needed: &[&str],
        _interpose: bool,
    ) -> LoadError {
        if kind == FaultKind::PartialLoad {
            // The mapping goes through, then load processing fails and
            // everything is rolled back: no region leaks, no slot burns.
            let base = DSO_AREA + self.next_dso_slot * DSO_STRIDE;
            if self
                .memory
                .map(base, dso.code_size.max(1), PagePerms::RX, &dso.name)
                .is_ok()
            {
                self.memory.unmap(base).expect("rollback of fresh mapping");
            }
        }
        self.fault_log.push(FiredFault {
            at,
            kind,
            target: dso.name.clone(),
        });
        LoadError::Fault {
            kind,
            name: dso.name.clone(),
        }
    }

    /// Unloads a shared object by name. Fails typed with
    /// [`LoadError::HasDependents`] while NEEDED edges point at it; use
    /// [`Self::dlclose_deferred`] to defer finalization instead.
    pub fn dlclose(&mut self, name: &str) -> Result<(), LoadError> {
        let idx = self
            .loaded_index(name)
            .ok_or_else(|| LoadError::NotLoaded(name.to_string()))?;
        assert!(idx != 0, "cannot dlclose the main executable");
        let dependents = self.dependents_of(name);
        if !dependents.is_empty() {
            return Err(LoadError::HasDependents {
                name: name.to_string(),
                dependents,
            });
        }
        self.finalize(idx)?;
        Ok(())
    }

    /// Unloads a shared object, deferring finalization while dependents
    /// remain: the object immediately leaves symbol resolution, stays
    /// mapped for its dependents, and is unmapped automatically when the
    /// last dependent closes.
    pub fn dlclose_deferred(&mut self, name: &str) -> Result<CloseOutcome, LoadError> {
        let idx = self
            .loaded_index(name)
            .ok_or_else(|| LoadError::NotLoaded(name.to_string()))?;
        assert!(idx != 0, "cannot dlclose the main executable");
        if self.dependents_of(name).is_empty() {
            self.finalize(idx)?;
            return Ok(CloseOutcome::Closed);
        }
        let obj = self.objects[idx].as_mut().expect("index from loaded_index");
        obj.pending_fini = true;
        self.resolution_order.retain(|&i| i != idx);
        self.bindings.take();
        Ok(CloseOutcome::Deferred)
    }

    /// Rebuild-and-reload: atomically replaces the loaded object named
    /// like `dso` with the new image at a fresh base, preserving its
    /// position in symbol-resolution order. Fails typed (and changes
    /// nothing) while dependents hold NEEDED edges on it.
    pub fn reload(&mut self, dso: Arc<Object>) -> Result<usize, LoadError> {
        let idx = self
            .loaded_index(&dso.name)
            .ok_or_else(|| LoadError::NotLoaded(dso.name.clone()))?;
        assert!(idx != 0, "cannot reload the main executable");
        let dependents = self.dependents_of(&dso.name);
        if !dependents.is_empty() {
            return Err(LoadError::HasDependents {
                name: dso.name.clone(),
                dependents,
            });
        }
        let pos = self
            .resolution_order
            .iter()
            .position(|&i| i == idx)
            .expect("loaded object is in resolution order");
        self.finalize(idx)?;
        let new_idx = self.dlopen(dso)?;
        // dlopen appended; restore the old resolution position.
        self.resolution_order.retain(|&i| i != new_idx);
        let pos = pos.min(self.resolution_order.len());
        self.resolution_order.insert(pos, new_idx);
        self.bindings.take();
        Ok(new_idx)
    }

    /// Unmaps object `idx`, vacates its slot, drops its outgoing NEEDED
    /// edges, and cascade-finalizes pending-fini objects it was the last
    /// dependent of.
    fn finalize(&mut self, idx: usize) -> Result<(), LoadError> {
        let obj = self.objects[idx].take().expect("finalize of loaded object");
        self.bindings.take();
        self.memory.unmap(obj.base)?;
        self.resolution_order.retain(|&i| i != idx);
        let name = obj.image.name.clone();
        self.deps.retain(|(dependent, _)| *dependent != name);
        // This close may have released a deferred-fini dependency.
        let ready: Vec<usize> = self
            .objects
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                let o = o.as_ref()?;
                (o.pending_fini && self.dependents_of(&o.image.name).is_empty()).then_some(i)
            })
            .collect();
        for i in ready {
            self.finalize(i)?;
        }
        Ok(())
    }

    /// Loaded objects with a NEEDED edge on `name`, in load order.
    pub fn dependents_of(&self, name: &str) -> Vec<String> {
        self.deps
            .iter()
            .filter(|(_, dependency)| dependency == name)
            .filter(|(dependent, _)| self.loaded_index(dependent).is_some())
            .map(|(dependent, _)| dependent.clone())
            .collect()
    }

    /// Whether `name` is loaded but awaiting deferred finalization.
    pub fn is_pending_fini(&self, name: &str) -> bool {
        self.loaded_index(name)
            .and_then(|i| self.objects[i].as_ref())
            .is_some_and(|o| o.pending_fini)
    }

    /// Index of a loaded object by name.
    pub fn loaded_index(&self, name: &str) -> Option<usize> {
        self.objects
            .iter()
            .position(|o| o.as_ref().is_some_and(|o| o.image.name == name))
    }

    /// Loaded object by index (None if unloaded).
    pub fn object(&self, idx: usize) -> Option<&LoadedObject> {
        self.objects.get(idx).and_then(Option::as_ref)
    }

    /// All currently loaded objects with their indices (including any
    /// awaiting deferred finalization — they are still mapped).
    pub fn loaded(&self) -> impl Iterator<Item = (usize, &LoadedObject)> {
        self.objects
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().map(|o| (i, o)))
    }

    /// Number of loaded objects.
    pub fn num_loaded(&self) -> usize {
        self.objects.iter().flatten().count()
    }

    /// Resolves `name` in dynamic-linker scope order: executable first,
    /// then DSOs in load order — except interposed objects, which sit
    /// right behind the executable and shadow same-named symbols of
    /// earlier-loaded DSOs. Pending-fini objects no longer resolve. Only
    /// *emitted* function bodies resolve.
    pub fn resolve(&self, name: &str) -> Option<FuncAddr> {
        self.lookup(self.resolution_order.iter().copied(), name)
    }

    /// What a call to `name` from already-mapped code binds to:
    /// [`Self::resolve`], then the objects awaiting deferred finalization
    /// (ascending index). Those left the lookup scope, but they stay
    /// mapped precisely so their dependents' calls keep landing.
    pub(crate) fn resolve_call(&self, name: &str) -> Option<FuncAddr> {
        self.resolve(name).or_else(|| {
            let pending = self.loaded().filter(|(_, o)| o.pending_fini);
            self.lookup(pending.map(|(i, _)| i), name)
        })
    }

    /// First definition of `name` among the objects at `order`.
    fn lookup(&self, order: impl Iterator<Item = usize>, name: &str) -> Option<FuncAddr> {
        for i in order {
            let Some(o) = self.objects[i].as_ref() else {
                continue;
            };
            if let Some(fi) = o.image.function_index(name) {
                return Some(FuncAddr {
                    object: i,
                    func: fi,
                    addr: o.func_addr(fi),
                });
            }
        }
        None
    }

    /// The call bindings of the current load state: built on first use,
    /// then shared until the next loader mutation (see the module docs).
    /// A clone of the process shares them until either side mutates.
    pub fn bindings(&self) -> &Arc<Bindings> {
        self.bindings
            .get_or_init(|| Arc::new(Bindings::build(self)))
    }

    /// Reverse lookup: which function contains `addr`?
    pub fn function_at(&self, addr: u64) -> Option<FuncAddr> {
        for (i, o) in self.loaded() {
            if addr >= o.base && addr < o.base + o.image.code_size {
                if let Some((fi, _)) = o.image.function_at_offset(addr - o.base) {
                    return Some(FuncAddr {
                        object: i,
                        func: fi,
                        addr: o.func_addr(fi),
                    });
                }
            }
        }
        None
    }

    /// `/proc/<pid>/maps`-style listing, ascending by base.
    pub fn memory_map(&self) -> Vec<MapEntry> {
        let mut entries: Vec<MapEntry> = self
            .loaded()
            .map(|(_, o)| MapEntry {
                base: o.base,
                len: o.image.code_size.div_ceil(PAGE_SIZE).max(1) * PAGE_SIZE,
                path: o.image.name.clone(),
            })
            .collect();
        entries.sort_by_key(|e| e.base);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompileOptions};
    use capi_appmodel::{LinkTarget, ProgramBuilder};

    fn binary() -> Binary {
        let mut b = ProgramBuilder::new("app");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(50)
            .calls("solve", 1)
            .finish();
        b.unit("s.cc", LinkTarget::Dso("libsolver.so".into()));
        b.function("solve")
            .statements(60)
            .instructions(400)
            .finish();
        b.unit("t.cc", LinkTarget::Dso("libtools.so".into()));
        b.function("tool").statements(60).instructions(300).finish();
        let p = b.build().unwrap();
        compile(&p, &CompileOptions::o2()).unwrap()
    }

    /// A standalone DSO exporting `solve` (for interposition tests).
    fn shadow_dso(name: &str) -> Arc<Object> {
        let mut b = ProgramBuilder::new("shadow");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main").main().statements(5).finish();
        b.unit("sh.cc", LinkTarget::Dso(name.into()));
        b.function("solve")
            .statements(30)
            .instructions(200)
            .finish();
        let p = b.build().unwrap();
        let bin = compile(&p, &CompileOptions::o2()).unwrap();
        Arc::new(bin.dsos[0].clone())
    }

    #[test]
    fn launch_binary_loads_everything() {
        let bin = binary();
        let p = Process::launch_binary(&bin).unwrap();
        assert_eq!(p.num_loaded(), 3);
        assert!(p.object(0).unwrap().at_preferred_base);
        assert!(!p.object(1).unwrap().at_preferred_base);
    }

    #[test]
    fn resolution_order_is_exe_first_then_load_order() {
        let bin = binary();
        let p = Process::launch_binary(&bin).unwrap();
        let main = p.resolve("main").unwrap();
        assert_eq!(main.object, 0);
        let solve = p.resolve("solve").unwrap();
        assert_eq!(solve.object, 1);
        assert!(solve.addr >= DSO_AREA);
        assert!(p.resolve("nonexistent").is_none());
    }

    #[test]
    fn function_at_reverse_lookup() {
        let bin = binary();
        let p = Process::launch_binary(&bin).unwrap();
        let solve = p.resolve("solve").unwrap();
        let back = p.function_at(solve.addr + 4).unwrap();
        assert_eq!(back.func, solve.func);
        assert_eq!(back.object, solve.object);
        assert!(p.function_at(0xdead_beef_0000).is_none());
    }

    #[test]
    fn dlclose_unloads_and_slot_is_reused() {
        let bin = binary();
        let mut p = Process::launch_binary(&bin).unwrap();
        p.dlclose("libsolver.so").unwrap();
        assert_eq!(p.num_loaded(), 2);
        assert!(p.resolve("solve").is_none());
        // Reload into the vacated slot.
        let idx = p.dlopen(Arc::new(bin.dsos[0].clone())).unwrap();
        assert_eq!(idx, 1);
        assert!(p.resolve("solve").is_some());
    }

    #[test]
    fn dlopen_twice_fails() {
        let bin = binary();
        let mut p = Process::launch_binary(&bin).unwrap();
        assert!(matches!(
            p.dlopen(Arc::new(bin.dsos[0].clone())),
            Err(LoadError::AlreadyLoaded(_))
        ));
    }

    #[test]
    fn memory_map_lists_all_objects_sorted() {
        let bin = binary();
        let p = Process::launch_binary(&bin).unwrap();
        let map = p.memory_map();
        assert_eq!(map.len(), 3);
        assert_eq!(map[0].path, "app");
        assert!(map.windows(2).all(|w| w[0].base < w[1].base));
    }

    #[test]
    fn dso_bases_do_not_collide() {
        let bin = binary();
        let p = Process::launch_binary(&bin).unwrap();
        let bases: Vec<u64> = p.loaded().map(|(_, o)| o.base).collect();
        let mut dedup = bases.clone();
        dedup.dedup();
        assert_eq!(bases.len(), dedup.len());
    }

    #[test]
    fn needed_edges_block_dlclose_typed() {
        let bin = binary();
        let mut p = Process::launch_binary(&bin).unwrap();
        p.dlclose("libtools.so").unwrap();
        let idx = p
            .dlopen_needed(Arc::new(bin.dsos[1].clone()), &["libsolver.so"])
            .unwrap();
        assert!(p.object(idx).is_some());
        let err = p.dlclose("libsolver.so").unwrap_err();
        assert_eq!(err.kind(), "has_dependents");
        assert!(matches!(
            err,
            LoadError::HasDependents { ref dependents, .. } if dependents == &["libtools.so"]
        ));
        // Closing the dependent releases the dependency.
        p.dlclose("libtools.so").unwrap();
        p.dlclose("libsolver.so").unwrap();
        assert_eq!(p.num_loaded(), 1);
    }

    #[test]
    fn missing_dependency_is_typed() {
        let bin = binary();
        let mut p = Process::launch_binary(&bin).unwrap();
        p.dlclose("libtools.so").unwrap();
        p.dlclose("libsolver.so").unwrap();
        let err = p
            .dlopen_needed(Arc::new(bin.dsos[1].clone()), &["libsolver.so"])
            .unwrap_err();
        assert_eq!(err.kind(), "missing_dependency");
    }

    #[test]
    fn deferred_fini_keeps_object_mapped_until_last_dependent_closes() {
        let bin = binary();
        let mut p = Process::launch_binary(&bin).unwrap();
        p.dlclose("libtools.so").unwrap();
        p.dlopen_needed(Arc::new(bin.dsos[1].clone()), &["libsolver.so"])
            .unwrap();
        let outcome = p.dlclose_deferred("libsolver.so").unwrap();
        assert_eq!(outcome, CloseOutcome::Deferred);
        assert!(p.is_pending_fini("libsolver.so"));
        // Still mapped, but out of symbol resolution.
        assert_eq!(p.num_loaded(), 3);
        assert!(p.resolve("solve").is_none());
        // Last dependent closes → cascade finalization.
        p.dlclose("libtools.so").unwrap();
        assert_eq!(p.num_loaded(), 1);
        assert!(p.loaded_index("libsolver.so").is_none());
    }

    #[test]
    fn interposed_dso_shadows_earlier_symbol() {
        let bin = binary();
        let mut p = Process::launch_binary(&bin).unwrap();
        let before = p.resolve("solve").unwrap();
        assert_eq!(before.object, 1);
        let idx = p.dlopen_interpose(shadow_dso("libshadow.so")).unwrap();
        let after = p.resolve("solve").unwrap();
        assert_eq!(after.object, idx, "interposed object must win resolution");
        assert_ne!(after.addr, before.addr);
        // Unloading the interposer restores the original binding.
        p.dlclose("libshadow.so").unwrap();
        assert_eq!(p.resolve("solve").unwrap().addr, before.addr);
    }

    #[test]
    fn reload_replaces_image_at_fresh_base_preserving_order() {
        let bin = binary();
        let mut p = Process::launch_binary(&bin).unwrap();
        let before = p.resolve("solve").unwrap();
        let idx = p.reload(Arc::new(bin.dsos[0].clone())).unwrap();
        let after = p.resolve("solve").unwrap();
        assert_eq!(after.object, idx);
        assert_ne!(after.addr, before.addr, "rebuilt object gets a new base");
        // Still resolves ahead of libtools.so (order preserved).
        assert_eq!(p.num_loaded(), 3);
    }

    #[test]
    fn scripted_dlopen_fault_fires_once_and_leaves_state_clean() {
        let bin = binary();
        let mut p = Process::launch_binary(&bin).unwrap();
        p.dlclose("libtools.so").unwrap();
        let calls = p.dlopen_calls();
        let mut plan = FaultPlan::new();
        plan.push(calls, FaultKind::PartialLoad);
        p.set_fault_plan(plan);
        let regions_before = p.memory.regions().len();
        let err = p.dlopen(Arc::new(bin.dsos[1].clone())).unwrap_err();
        assert_eq!(err.kind(), "partial_load");
        // Rollback: no leaked mapping, and the retry succeeds.
        assert_eq!(p.memory.regions().len(), regions_before);
        assert_eq!(p.fired_faults().len(), 1);
        assert_eq!(p.fired_faults()[0].at, calls);
        p.dlopen(Arc::new(bin.dsos[1].clone())).unwrap();
        assert_eq!(p.fired_faults().len(), 1, "each fault fires exactly once");
    }
}
