//! Call bindings: the part of "linking" that depends only on what is
//! loaded.
//!
//! Resolving every call site of every loaded function to its callee is
//! what the dynamic linker does once per load; patching a sled never
//! changes it. [`Bindings`] is that result for one load state — dense
//! function keys, call-site targets bound to those keys in flat CSR
//! arrays, the per-function facts an executor reads on every call, `main`,
//! and the references nothing loaded provides. [`Process::bindings`]
//! builds it lazily and every loader mutation throws it away, so a
//! consumer that re-reads it after each `dlopen`/`dlclose` can never see
//! a stale binding and pays the name resolution once per load state.
//!
//! Facts that are pure functions of the bindings — the static subtree
//! cost estimate an executor ranks call sites by, the reverse call edges
//! an incremental analysis walks — live here too, each built on first
//! use and dropped with the bindings: once per load state, however many
//! consumers ask.

use crate::loader::Process;
use crate::object::{CompiledFunction, Object};
use capi_appmodel::MpiCall;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Dense function key: functions of the still-mapped objects numbered
/// consecutively, objects in ascending loader index, functions in layout
/// order within each.
pub type FuncKey = u32;

/// One still-mapped object as the bindings numbered it.
#[derive(Clone, Debug)]
pub struct BoundObject {
    /// Loader object index ([`Process::object`]).
    pub index: usize,
    /// Key of the object's first function; function `i` has key
    /// `base + i`.
    pub base: FuncKey,
    /// The object image the keys index into.
    pub image: Arc<Object>,
}

impl PartialEq for BoundObject {
    /// Images are immutable and shared, so identity is equality.
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && self.base == other.base
            && Arc::ptr_eq(&self.image, &other.image)
    }
}

/// The per-function facts an executor reads on every invocation, copied
/// out of the image once so the hot path indexes one flat array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundFunc {
    /// Per-invocation compute cost in virtual ns.
    pub body_cost_ns: u64,
    /// Per-rank imbalance percentage.
    pub imbalance_pct: u32,
    /// MPI operation performed by this body, if it is an MPI stub.
    pub mpi: Option<MpiCall>,
}

/// Every call site of every still-mapped function, bound in the loader's
/// resolution order (see the module docs).
#[derive(Debug, PartialEq)]
pub struct Bindings {
    objects: Vec<BoundObject>,
    funcs: Vec<BoundFunc>,
    /// Sites of key `k` are `site_start[k]..site_start[k + 1]`.
    site_start: Vec<u32>,
    /// Executions per invocation of the containing function, per site.
    trips: Vec<u64>,
    /// Targets of site `s` are `targets[target_start[s]..target_start[s + 1]]`.
    target_start: Vec<u32>,
    targets: Vec<FuncKey>,
    main: Option<FuncKey>,
    /// `(caller, callee name)` references no mapped object provides, in
    /// key / site / target order. They are absent from `targets`.
    unresolved: Vec<(FuncKey, String)>,
    derived: Derived,
}

/// Facts computed from the fields above alone, each on first use.
#[derive(Debug, Default)]
struct Derived {
    subtree_costs: OnceLock<Vec<u64>>,
    callers: OnceLock<Callers>,
}

impl PartialEq for Derived {
    /// Pure functions of the fields `Bindings` already compares; built
    /// or not is not part of a binding's identity.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The call edges transposed, in CSR form: callers of key `k` are
/// `callers[start[k]..start[k + 1]]`.
#[derive(Debug)]
struct Callers {
    start: Vec<u32>,
    callers: Vec<FuncKey>,
}

impl Bindings {
    /// Binds the current load state of `process` from scratch.
    /// [`Process::bindings`] is the cached form of this call.
    pub fn build(process: &Process) -> Self {
        let mut objects = Vec::with_capacity(process.num_loaded());
        let mut obj_base: Vec<FuncKey> = Vec::new();
        let mut next: FuncKey = 0;
        for (index, lo) in process.loaded() {
            obj_base.resize(index + 1, 0);
            obj_base[index] = next;
            objects.push(BoundObject {
                index,
                base: next,
                image: lo.image.clone(),
            });
            next += lo.image.functions.len() as u32;
        }
        let key_of = |name: &str| {
            process
                .resolve_call(name)
                .map(|a| obj_base[a.object] + a.func)
        };
        let mut b = Self {
            objects,
            funcs: Vec::with_capacity(next as usize),
            site_start: Vec::with_capacity(next as usize + 1),
            trips: Vec::new(),
            target_start: Vec::new(),
            targets: Vec::new(),
            main: key_of("main"),
            unresolved: Vec::new(),
            derived: Derived::default(),
        };
        for o in &b.objects {
            for (fi, f) in o.image.functions.iter().enumerate() {
                b.funcs.push(BoundFunc {
                    body_cost_ns: f.body_cost_ns,
                    imbalance_pct: f.imbalance_pct,
                    mpi: f.mpi,
                });
                b.site_start.push(b.trips.len() as u32);
                for s in &f.call_sites {
                    b.trips.push(s.trips);
                    b.target_start.push(b.targets.len() as u32);
                    for t in &s.targets {
                        match key_of(t) {
                            Some(key) => b.targets.push(key),
                            None => b.unresolved.push((o.base + fi as u32, t.clone())),
                        }
                    }
                }
            }
        }
        b.site_start.push(b.trips.len() as u32);
        b.target_start.push(b.targets.len() as u32);
        b
    }

    /// Number of bound functions; keys are `0..num_functions()`.
    pub fn num_functions(&self) -> usize {
        self.funcs.len()
    }

    /// The still-mapped objects, ascending by loader index (and by key).
    pub fn objects(&self) -> &[BoundObject] {
        &self.objects
    }

    /// What a call to `main` binds to.
    pub fn main(&self) -> Option<FuncKey> {
        self.main
    }

    /// `(caller, callee name)` references no mapped object provides, in
    /// key / site / target order; they are absent from [`Self::targets`].
    pub fn unresolved(&self) -> &[(FuncKey, String)] {
        &self.unresolved
    }

    /// The hot-path facts of `key`.
    #[inline]
    pub fn func(&self, key: FuncKey) -> &BoundFunc {
        &self.funcs[key as usize]
    }

    /// The compiled function behind `key` (name, layout, everything the
    /// hot path does not need).
    pub fn function(&self, key: FuncKey) -> &CompiledFunction {
        let o = self.object_of(key);
        &o.image.functions[(key - o.base) as usize]
    }

    /// The object `key` belongs to; its function index there is
    /// `key - base`.
    pub fn object_of(&self, key: FuncKey) -> &BoundObject {
        &self.objects[self.objects.partition_point(|o| o.base <= key) - 1]
    }

    /// The call sites of `key`, as indices for [`Self::trips`] and
    /// [`Self::targets`].
    #[inline]
    pub fn sites(&self, key: FuncKey) -> Range<usize> {
        self.site_start[key as usize] as usize..self.site_start[key as usize + 1] as usize
    }

    /// Executions of `site` per invocation of its function.
    #[inline]
    pub fn trips(&self, site: usize) -> u64 {
        self.trips[site]
    }

    /// The bound targets of `site` (a virtual site cycles through them).
    #[inline]
    pub fn targets(&self, site: usize) -> &[FuncKey] {
        &self.targets[self.target_start[site] as usize..self.target_start[site + 1] as usize]
    }

    /// The functions calling `key`, ascending, one entry per bound
    /// call-site target (a caller naming `key` at two sites is listed
    /// twice). Transposed from the bindings on first use.
    pub fn callers(&self, key: FuncKey) -> &[FuncKey] {
        let c = self.derived.callers.get_or_init(|| self.transpose());
        &c.callers[c.start[key as usize] as usize..c.start[key as usize + 1] as usize]
    }

    fn transpose(&self) -> Callers {
        let n = self.num_functions();
        let mut start = vec![0u32; n + 1];
        for &t in &self.targets {
            start[t as usize + 1] += 1;
        }
        for k in 0..n {
            start[k + 1] += start[k];
        }
        let mut next = start.clone();
        let mut callers = vec![0; self.targets.len()];
        for caller in 0..n as FuncKey {
            for &t in self.sites(caller).flat_map(|s| self.targets(s)) {
                callers[next[t as usize] as usize] = caller;
                next[t as usize] += 1;
            }
        }
        Callers { start, callers }
    }

    /// Static estimate of every function's subtree cost in virtual ns:
    /// its body plus, per call site, trips × the mean of the targets'
    /// subtrees; a function met again on its own call path contributes
    /// its body only. Saturates at `u64::MAX`. Good for ranking call
    /// sites against each other (finding a program's dominant loop),
    /// not for predicting a run. Computed on first use.
    pub fn subtree_costs(&self) -> &[u64] {
        self.derived
            .subtree_costs
            .get_or_init(|| self.estimate_subtree_costs())
    }

    fn estimate_subtree_costs(&self) -> Vec<u64> {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Unknown,
            InProgress,
            Done,
        }
        let n = self.num_functions();
        let mut state = vec![State::Unknown; n];
        let mut cost = vec![0u64; n];
        // Iterative post-order DFS from every function not yet costed.
        for start in 0..n as FuncKey {
            if state[start as usize] != State::Unknown {
                continue;
            }
            let mut stack: Vec<(FuncKey, bool)> = vec![(start, false)];
            while let Some((key, children_done)) = stack.pop() {
                let f = key as usize;
                if children_done {
                    if state[f] != State::InProgress {
                        continue;
                    }
                    let mut total = self.func(key).body_cost_ns as u128;
                    for s in self.sites(key) {
                        let (targets, trips) = (self.targets(s), self.trips(s));
                        if targets.is_empty() || trips == 0 {
                            continue;
                        }
                        let sum: u128 = targets.iter().map(|&t| cost[t as usize] as u128).sum();
                        total += trips as u128 * (sum / targets.len() as u128);
                    }
                    cost[f] = total.min(u64::MAX as u128) as u64;
                    state[f] = State::Done;
                    continue;
                }
                match state[f] {
                    State::Done => continue,
                    State::InProgress => {
                        // Cycle: settle for the body cost.
                        cost[f] = self.func(key).body_cost_ns;
                        state[f] = State::Done;
                        continue;
                    }
                    State::Unknown => {}
                }
                state[f] = State::InProgress;
                stack.push((key, true));
                for &t in self.sites(key).flat_map(|s| self.targets(s)) {
                    if state[t as usize] == State::Unknown {
                        stack.push((t, false));
                    }
                }
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::loader::CloseOutcome;
    use crate::object::{CompiledCallSite, DispatchKind, ObjectKind};
    use crate::symbols::SymbolTable;
    use capi_appmodel::{FunctionKind, Visibility};
    use proptest::prelude::*;

    /// A function whose call sites target `sites` (one inner slice per
    /// site; more than one name makes it a virtual site).
    fn func(name: &str, index: u64, sites: &[&[&str]]) -> CompiledFunction {
        CompiledFunction {
            name: name.into(),
            demangled: name.into(),
            offset: index * 64,
            size: 64,
            instructions: 16,
            loop_depth: 0,
            visibility: Visibility::Default,
            kind: FunctionKind::Normal,
            body_cost_ns: 10 + index,
            imbalance_pct: 0,
            mpi: None,
            call_sites: sites
                .iter()
                .enumerate()
                .map(|(i, targets)| CompiledCallSite {
                    targets: targets.iter().map(|t| t.to_string()).collect(),
                    dispatch: DispatchKind::Direct,
                    trips: 1 + i as u64,
                })
                .collect(),
            inlined: vec![],
            return_sites: 1,
        }
    }

    fn object(name: &str, kind: ObjectKind, fns: &[(&str, &[&[&str]])]) -> Arc<Object> {
        let fns = fns
            .iter()
            .enumerate()
            .map(|(i, (n, sites))| func(n, i as u64, sites))
            .collect();
        Arc::new(Object::new(name.into(), kind, fns, SymbolTable::new()))
    }

    /// The DSO pool: names overlap on purpose (`solve`, `tool`, `helper`
    /// each have two definitions) and `ghost` has none.
    fn dso(i: u8) -> Arc<Object> {
        let so = ObjectKind::SharedObject;
        match i % 4 {
            0 => object(
                "libsolver.so",
                so,
                &[("solve", &[&["tool"]]), ("helper", &[])],
            ),
            1 => object(
                "libtools.so",
                so,
                &[("tool", &[]), ("helper", &[&["solve", "ghost"]])],
            ),
            2 => object(
                "libshadow.so",
                so,
                &[("solve", &[]), ("tool", &[&["extra"]])],
            ),
            _ => object(
                "libextra.so",
                so,
                &[("extra", &[&["solve"], &["helper"]]), ("helper", &[])],
            ),
        }
    }

    fn launch() -> Process {
        let exe = object(
            "app",
            ObjectKind::Executable,
            &[
                ("main", &[&["solve"], &["tool", "helper"], &["ghost"]]),
                ("local", &[&["extra"]]),
            ],
        );
        let mut p = Process::launch(exe).unwrap();
        p.dlopen(dso(0)).unwrap();
        p.dlopen(dso(1)).unwrap();
        p
    }

    /// The definition the bindings are held to, spelled out per name:
    /// `resolve`, else the first pending-fini object defining it.
    fn expected_key(p: &Process, b: &Bindings, name: &str) -> Option<FuncKey> {
        let base_of = |index: usize| b.objects().iter().find(|o| o.index == index).unwrap().base;
        p.resolve(name)
            .map(|a| base_of(a.object) + a.func)
            .or_else(|| {
                p.loaded()
                    .filter(|(_, o)| o.pending_fini)
                    .find_map(|(i, o)| Some(base_of(i) + o.image.function_index(name)?))
            })
    }

    fn check(p: &Process) {
        let cached = Arc::clone(p.bindings());
        assert_eq!(*cached, Bindings::build(p), "cached bindings went stale");
        let mut unresolved = Vec::new();
        let mut key = 0;
        for (_, lo) in p.loaded() {
            for f in &lo.image.functions {
                assert_eq!(cached.function(key).name, f.name);
                assert_eq!(cached.sites(key).len(), f.call_sites.len());
                for (site, cs) in cached.sites(key).zip(&f.call_sites) {
                    assert_eq!(cached.trips(site), cs.trips);
                    let expected: Vec<FuncKey> = cs
                        .targets
                        .iter()
                        .filter_map(|t| {
                            let k = expected_key(p, &cached, t);
                            if k.is_none() {
                                unresolved.push((key, t.clone()));
                            }
                            k
                        })
                        .collect();
                    assert_eq!(cached.targets(site), expected, "site of `{}`", f.name);
                }
                key += 1;
            }
        }
        assert_eq!(cached.num_functions(), key as usize);
        // The reverse edges are the forward edges, transposed.
        let mut forward: Vec<(FuncKey, FuncKey)> = (0..key)
            .flat_map(|k| cached.sites(k).map(move |s| (k, s)))
            .flat_map(|(k, s)| cached.targets(s).iter().map(move |&t| (t, k)))
            .collect();
        forward.sort_unstable();
        let reverse: Vec<(FuncKey, FuncKey)> = (0..key)
            .flat_map(|t| cached.callers(t).iter().map(move |&k| (t, k)))
            .collect();
        assert_eq!(reverse, forward);
        assert_eq!(cached.unresolved(), unresolved);
        assert_eq!(cached.main(), expected_key(p, &cached, "main"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the loader is put through — refused and faulted calls
        /// included — the cached bindings equal a from-scratch build and
        /// every bound target is what the loader resolves the name to.
        #[test]
        fn bindings_follow_every_loader_mutation(
            ops in proptest::collection::vec((0u8..7, 0u8..4), 0..24)
        ) {
            let mut p = launch();
            check(&p);
            for (op, t) in ops {
                let name = dso(t).name.clone();
                // Refusals (already loaded, not loaded, has dependents,
                // missing dependency, injected fault) are part of the
                // input space: only the state afterwards matters.
                match op {
                    0 => drop(p.dlopen(dso(t))),
                    1 => drop(p.dlopen_interpose(dso(t))),
                    2 => drop(p.dlopen_needed(dso(t), &[dso(t + 1).name.as_str()])),
                    3 => drop(p.dlclose(&name)),
                    4 => drop(p.dlclose_deferred(&name)),
                    5 => drop(p.reload(dso(t))),
                    _ => {
                        let kinds = [
                            FaultKind::DlopenOom,
                            FaultKind::Relocation,
                            FaultKind::PartialLoad,
                        ];
                        let mut plan = FaultPlan::new();
                        plan.push(p.dlopen_calls(), kinds[t as usize % 3]);
                        p.set_fault_plan(plan);
                    }
                }
                check(&p);
            }
        }
    }

    #[test]
    fn derived_facts_are_built_once_per_load_state() {
        let mut p = launch();
        let b = Arc::clone(p.bindings());
        let costs = b.subtree_costs().as_ptr();
        let callers = b.callers(0).as_ptr();
        assert_eq!(p.bindings().subtree_costs().as_ptr(), costs);
        assert_eq!(p.bindings().callers(0).as_ptr(), callers);
        // `main` (body 10) calls `solve` once, {`tool`, `helper`} twice
        // (mean of the two) and the unbound `ghost`; `solve` calls `tool`.
        let cost_of = |name: &str| {
            let key = (0..b.num_functions() as FuncKey)
                .find(|&k| b.function(k).name == name && b.main() != Some(k))
                .unwrap();
            b.subtree_costs()[key as usize]
        };
        let main = b.subtree_costs()[b.main().unwrap() as usize];
        assert_eq!(
            main,
            10 + cost_of("solve") + 2 * ((cost_of("tool") + cost_of("helper")) / 2)
        );
        // Built or not, the bindings are the same bindings.
        assert_eq!(*b, Bindings::build(&p));
        // A loader mutation drops them with the bindings.
        p.dlopen(dso(3)).unwrap();
        assert_ne!(p.bindings().subtree_costs().as_ptr(), costs);
    }

    #[test]
    fn a_clone_shares_the_bindings_until_either_side_mutates() {
        let p = launch();
        p.bindings();
        let mut q = p.clone();
        assert!(Arc::ptr_eq(p.bindings(), q.bindings()));
        // A refused call changes nothing and keeps them.
        assert!(q.dlopen(dso(0)).is_err());
        assert!(Arc::ptr_eq(p.bindings(), q.bindings()));
        q.dlopen(dso(3)).unwrap();
        assert!(!Arc::ptr_eq(p.bindings(), q.bindings()));
        check(&p);
        check(&q);
    }

    /// Asserts `main`'s first call (to `solve`) lands in `dso`, where
    /// `solve` is function 0.
    fn assert_solve_binds_into(p: &Process, dso: &str) {
        let b = p.bindings();
        let target = b.targets(b.sites(b.main().unwrap()).start)[0];
        let index = p.loaded_index(dso).unwrap();
        let o = b.objects().iter().find(|o| o.index == index).unwrap();
        assert_eq!(target, o.base, "`solve` must bind into {dso}");
    }

    #[test]
    fn calls_bind_in_resolution_order_not_slot_order() {
        let mut p = launch();
        assert_solve_binds_into(&p, "libsolver.so");
        // The interposer lands in a *higher* slot and still wins.
        p.dlopen_interpose(dso(2)).unwrap();
        assert_solve_binds_into(&p, "libshadow.so");
        p.dlclose("libshadow.so").unwrap();
        assert_solve_binds_into(&p, "libsolver.so");
    }

    #[test]
    fn pending_fini_objects_keep_their_callers_bound_but_resolve_last() {
        let mut p = launch();
        p.dlopen_needed(dso(3), &["libsolver.so"]).unwrap();
        assert_eq!(
            p.dlclose_deferred("libsolver.so").unwrap(),
            CloseOutcome::Deferred
        );
        assert!(p.resolve("solve").is_none());
        // Still mapped for libextra: `main`'s call keeps landing in it.
        assert_solve_binds_into(&p, "libsolver.so");
        check(&p);
        // A definition that *is* in scope beats the pending one.
        p.dlopen(dso(2)).unwrap();
        assert_solve_binds_into(&p, "libshadow.so");
        check(&p);
    }
}
