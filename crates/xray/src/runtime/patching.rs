//! Sled patching — the only code in the crate that changes page
//! protection or writes sled bytes.
//!
//! Every mutator builds a list of per-object [`ObjectChange`]s and hands
//! it to [`XRayRuntime::mutate`], which does the one thing there is to
//! do to a sled, in this order: validate the IDs (or skip the stale
//! ones), open the generation, and per object that has anything to
//! change flip its sled pages writable, rewrite, flip them back; then
//! install rates and publish — always, because a fault part-way leaves
//! earlier writes in place and readers must see exactly what memory
//! holds.

use super::{Inner, PatchDelta, Registered, RepatchReport, XRayError, XRayRuntime};
use crate::packed_id::PackedId;
use crate::sled::SLED_BYTES;
use capi_objmodel::{AddressSpace, MemError, PagePerms};
use std::collections::BTreeMap;

/// The end states one batch asks of one object.
#[derive(Default)]
struct ObjectChange {
    /// `(fid, patched)`; a repeated fid must repeat its state.
    sleds: Vec<(u32, bool)>,
    /// `(fid, 1-in-N ≥ 1)`, installed after every sled change of the
    /// batch so `patch + set_rate` of one function ends sampled.
    rates: Vec<(u32, u32)>,
}

/// What to do with an entry whose object or function is not registered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OnMissing {
    /// Refuse the whole batch before anything is touched.
    Fail,
    /// Drop the entry and count it (DSO churn raced the decision).
    Skip,
}

impl Registered {
    fn has_fid(&self, fid: u32) -> bool {
        (fid as usize) < self.patched.len()
    }
}

fn unknown_function(object: u8, fid: u32) -> XRayError {
    XRayError::UnknownFunction(PackedId::pack(object, fid).unwrap_or(PackedId::from_raw(0)))
}

/// A fault turns the report of what was applied into the error's payload.
fn settle(report: RepatchReport, fault: Option<MemError>) -> Result<RepatchReport, XRayError> {
    match fault {
        None => Ok(report),
        Some(error) => Err(XRayError::Mem {
            applied: report,
            error,
        }),
    }
}

impl XRayRuntime {
    /// Applies a batch of patch *and* unpatch operations atomically with
    /// respect to snapshots — the in-flight adaptation primitive. Each
    /// touched object pays one `mprotect` pair; the patch generation is
    /// bumped once for the whole batch; functions unpatched here are
    /// remembered with the new generation so dispatches from snapshots
    /// that predate the batch are tolerated instead of faulting.
    ///
    /// When an ID appears in both lists the unpatch wins; duplicate IDs
    /// within a list are applied once. Unknown IDs fail the batch before
    /// anything is touched. A memory fault part-way returns
    /// [`XRayError::Mem`] carrying the report of what *was* applied —
    /// those writes stay, and they are published.
    pub fn repatch(
        &self,
        mem: &mut AddressSpace,
        delta: &PatchDelta,
    ) -> Result<RepatchReport, XRayError> {
        self.repatch_with(mem, delta, OnMissing::Fail)
    }

    /// Like [`Self::repatch`], but survives DSO churn: delta entries
    /// whose object was deregistered (or whose function has no sled in
    /// the currently-registered image, after a rebuild) are *skipped and
    /// counted* (`skipped_objects` / `skipped_entries` in the report)
    /// instead of failing the whole batch. This is the degradation mode
    /// an adaptation loop uses when an unload may race its decisions:
    /// never a panic, never a write through a recycled slot — a skipped
    /// entry simply leaves that object's sleds as they are.
    ///
    /// Memory faults (e.g. an injected `mprotect` failure) still
    /// propagate: they are environment failures, not staleness.
    pub fn repatch_surviving(
        &self,
        mem: &mut AddressSpace,
        delta: &PatchDelta,
    ) -> Result<RepatchReport, XRayError> {
        self.repatch_with(mem, delta, OnMissing::Skip)
    }

    fn repatch_with(
        &self,
        mem: &mut AddressSpace,
        delta: &PatchDelta,
        on_missing: OnMissing,
    ) -> Result<RepatchReport, XRayError> {
        if delta.is_empty() {
            return Ok(RepatchReport {
                generation: self.generation(),
                ..Default::default()
            });
        }
        let span = self.obs.get().map(|h| h.tel.span("xray.repatch"));
        let wall_start = std::time::Instant::now();
        // One end state per function: the unpatch insertion overwrites a
        // patch entry (unpatch wins), the last rate listed for a function
        // wins, and the maps keep application order stable.
        let mut states: BTreeMap<PackedId, bool> = BTreeMap::new();
        states.extend(delta.patch.iter().map(|&id| (id, true)));
        states.extend(delta.unpatch.iter().map(|&id| (id, false)));
        let rates: BTreeMap<PackedId, u32> =
            (delta.set_rate.iter().map(|&(id, rate)| (id, rate.max(1)))).collect();
        let mut changes: BTreeMap<u8, ObjectChange> = BTreeMap::new();
        for (id, state) in states {
            let change = changes.entry(id.object()).or_default();
            change.sleds.push((id.function(), state));
        }
        for (id, rate) in rates {
            let change = changes.entry(id.object()).or_default();
            change.rates.push((id.function(), rate));
        }
        let mut inner = self.write_inner("repatch");
        let (report, fault) = self.mutate(&mut inner, mem, changes, on_missing)?;
        inner.stats.repatches += 1;
        drop(inner);
        if let Some(span) = &span {
            span.arg("generation", report.generation);
            span.arg("sleds_patched", report.sleds_patched);
            span.arg("sleds_unpatched", report.sleds_unpatched);
            span.arg("mprotect_pairs", report.mprotect_pairs);
            span.arg("rates_set", report.rates_set);
            if on_missing == OnMissing::Skip {
                span.arg("skipped_objects", report.skipped_objects);
                span.arg("skipped_entries", report.skipped_entries);
            }
            span.wall_ns(wall_start.elapsed().as_nanos() as u64);
        }
        settle(report, fault)
    }

    /// Patches every sled of an object in one pass (a single `mprotect`
    /// pair over the whole sled region — what XRay does at startup when
    /// no selection is active). Returns sleds rewritten.
    pub fn patch_all(&self, mem: &mut AddressSpace, object_id: u8) -> Result<u32, XRayError> {
        let mut inner = self.write_inner("patch_all");
        let reg = inner
            .registered(object_id)
            .ok_or(XRayError::UnknownObject(object_id))?;
        let functions = reg.patched.len() as u32;
        if functions == 0 {
            return Ok(0);
        }
        self.patch_object(&mut inner, mem, object_id, 0..functions)
    }

    /// Patches a *set* of functions of one object with a single
    /// `mprotect` pair over the object's sled region — how DynCaPI
    /// applies an IC: flip the pages once, rewrite only the selected
    /// sleds, restore protection. Returns sleds rewritten.
    pub fn patch_functions(
        &self,
        mem: &mut AddressSpace,
        object_id: u8,
        fids: &[u32],
    ) -> Result<u32, XRayError> {
        if fids.is_empty() {
            return Ok(0);
        }
        let mut inner = self.write_inner("patch_functions");
        self.patch_object(&mut inner, mem, object_id, fids.iter().copied())
    }

    /// The startup forms' batch: patch `fids` of one object.
    fn patch_object(
        &self,
        inner: &mut Inner,
        mem: &mut AddressSpace,
        object_id: u8,
        fids: impl Iterator<Item = u32>,
    ) -> Result<u32, XRayError> {
        let change = ObjectChange {
            sleds: fids.map(|fid| (fid, true)).collect(),
            rates: Vec::new(),
        };
        let changes = BTreeMap::from([(object_id, change)]);
        let (report, fault) = self.mutate(inner, mem, changes, OnMissing::Fail)?;
        settle(report, fault).map(|r| r.sleds_patched as u32)
    }

    /// The mutation core. `Err` means an ID did not resolve and nothing
    /// was touched — no write, no generation, no publish. Otherwise the
    /// batch was opened: the report says what was applied, the fault (if
    /// any) says why that is not everything, and the table readers see
    /// was republished either way.
    fn mutate(
        &self,
        inner: &mut Inner,
        mem: &mut AddressSpace,
        mut changes: BTreeMap<u8, ObjectChange>,
        on_missing: OnMissing,
    ) -> Result<(RepatchReport, Option<MemError>), XRayError> {
        let mut report = RepatchReport::default();
        match on_missing {
            OnMissing::Fail => {
                for (&object, c) in &changes {
                    let reg = inner
                        .registered(object)
                        .ok_or(XRayError::UnknownObject(object))?;
                    let mut fids = c
                        .sleds
                        .iter()
                        .map(|s| s.0)
                        .chain(c.rates.iter().map(|r| r.0));
                    if let Some(fid) = fids.find(|&fid| !reg.has_fid(fid)) {
                        return Err(unknown_function(object, fid));
                    }
                }
            }
            // Drop what no longer resolves — the object was deregistered,
            // or its (rebuilt) image lost the function.
            OnMissing::Skip => changes.retain(|&object, c| {
                let asked = c.sleds.len() + c.rates.len();
                match inner.registered(object) {
                    None => {
                        report.skipped_objects += 1;
                        *c = ObjectChange::default();
                    }
                    Some(reg) => {
                        c.sleds.retain(|s| reg.has_fid(s.0));
                        c.rates.retain(|r| reg.has_fid(r.0));
                    }
                }
                let kept = c.sleds.len() + c.rates.len();
                report.skipped_entries += (asked - kept) as u64;
                kept > 0
            }),
        }
        report.generation = self.bump();
        let fault = Self::rewrite(inner, mem, &changes, &mut report).err();
        inner.stats.sled_writes += report.sleds_patched + report.sleds_unpatched;
        // COW publish: only the objects this batch referenced are
        // rebuilt — DSO churn and repatch stay O(touched objects).
        let touched: Vec<u8> = changes.keys().copied().collect();
        self.publish_locked(inner, &touched);
        Ok((report, fault))
    }

    /// Brings memory and the inner state to the validated `changes`,
    /// stopping at the first memory fault with everything before it
    /// (and `report`) left as applied.
    fn rewrite(
        inner: &mut Inner,
        mem: &mut AddressSpace,
        changes: &BTreeMap<u8, ObjectChange>,
        report: &mut RepatchReport,
    ) -> Result<(), MemError> {
        for (&object, c) in changes {
            let reg = inner.objects[object as usize].as_mut().expect("validated");
            let Some((pages, len)) = reg.sled_pages else {
                continue;
            };
            if c.sleds
                .iter()
                .all(|&(fid, state)| reg.patched[fid as usize] == state)
            {
                continue;
            }
            mem.mprotect(pages, len, PagePerms::RWX)?;
            for &(fid, state) in &c.sleds {
                if reg.patched[fid as usize] == state {
                    continue;
                }
                let entry = reg.inst.sleds.by_fid(fid).expect("validated");
                let mut sleds = 0u64;
                for (off, _) in entry.offsets() {
                    mem.checked_write(reg.base + off, SLED_BYTES)?;
                    sleds += 1;
                }
                reg.patched[fid as usize] = state;
                if state {
                    reg.rate[fid as usize] = 1;
                    report.sleds_patched += sleds;
                } else {
                    reg.unpatch_gen[fid as usize] = report.generation;
                    report.sleds_unpatched += sleds;
                }
            }
            mem.mprotect(pages, len, PagePerms::RX)?;
            report.mprotect_pairs += 1;
        }
        // Rate changes touch no sled bytes and cost no page flip — they
        // live only in the published table.
        for (&object, c) in changes {
            let reg = inner.objects[object as usize].as_mut().expect("validated");
            for &(fid, rate) in &c.rates {
                if reg.rate[fid as usize] != rate {
                    reg.rate[fid as usize] = rate;
                    report.rates_set += 1;
                }
            }
        }
        Ok(())
    }
}
