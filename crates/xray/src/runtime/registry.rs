//! Object registration (Fig. 4 ID layout: the executable is object 0,
//! DSOs take 1..=255 and recycle vacated slots), the handler, and the
//! ID↔address queries over the registered sled tables. Everything that
//! changes what readers may see ends in one copy-on-write publish.

use super::{Inner, Registered, XRayError, XRayRuntime};
use crate::handler::Handler;
use crate::packed_id::{IdError, PackedId, MAX_FUNCTION_ID};
use crate::pass::InstrumentedObject;
use crate::trampoline::TrampolineSet;
use capi_objmodel::LoadedObject;
use std::sync::Arc;

impl XRayRuntime {
    /// Registers the main executable as object 0. Its trampolines may use
    /// absolute addressing because the executable runs at its preferred
    /// base.
    pub fn register_main(
        &self,
        inst: InstrumentedObject,
        loaded: &LoadedObject,
        trampolines: TrampolineSet,
    ) -> Result<u8, XRayError> {
        let mut inner = self.write_inner("register_main");
        if !inner.objects.is_empty() {
            return Err(XRayError::MainAlreadyRegistered);
        }
        check_fid_capacity(&inst)?;
        inner
            .objects
            .push(Some(Registered::new(inst, loaded, 0, trampolines)));
        self.object_set_changed(&mut inner, 0);
        Ok(0)
    }

    /// Registers a DSO (what the `xray-dso` runtime does from the DSO's
    /// load-time constructor), passing its sled table, its index in the
    /// loader's object list, and its local position-independent
    /// trampolines.
    pub fn register_dso(
        &self,
        inst: InstrumentedObject,
        loaded: &LoadedObject,
        process_index: usize,
        trampolines: TrampolineSet,
    ) -> Result<u8, XRayError> {
        let mut inner = self.write_inner("register_dso");
        if inner.objects.is_empty() {
            return Err(XRayError::MainMustBeFirst);
        }
        check_fid_capacity(&inst)?;
        // Reuse a vacated slot (deregistered DSO) or append.
        let slot = inner.objects.iter().skip(1).position(Option::is_none);
        let object_id = match slot {
            Some(s) => s + 1,
            None => {
                if inner.objects.len() > u8::MAX as usize {
                    return Err(XRayError::TooManyObjects);
                }
                inner.objects.push(None);
                inner.objects.len() - 1
            }
        };
        inner.objects[object_id] = Some(Registered::new(inst, loaded, process_index, trampolines));
        self.object_set_changed(&mut inner, object_id as u8);
        Ok(object_id as u8)
    }

    /// Deregisters a DSO (called when the object is `dlclose`d). Object 0
    /// is the main executable and stays for the life of the process:
    /// asking to remove it is refused and changes nothing.
    pub fn deregister(&self, object_id: u8) -> Result<(), XRayError> {
        if object_id == 0 {
            return Err(XRayError::MainIsPermanent);
        }
        let mut inner = self.write_inner("deregister");
        let slot = inner
            .objects
            .get_mut(object_id as usize)
            .ok_or(XRayError::UnknownObject(object_id))?;
        if slot.take().is_none() {
            return Err(XRayError::UnknownObject(object_id));
        }
        self.object_set_changed(&mut inner, object_id);
        Ok(())
    }

    /// Recounts the registered objects and publishes `object_id`'s new
    /// (or vacated) table entry under a fresh generation.
    fn object_set_changed(&self, inner: &mut Inner, object_id: u8) {
        inner.stats.objects_registered = inner.objects.iter().flatten().count();
        self.bump();
        self.publish_locked(inner, &[object_id]);
    }

    /// Installs the global event handler (`__xray_set_handler`).
    pub fn set_handler(&self, handler: Arc<dyn Handler>) {
        self.replace_handler("set_handler", Some(handler));
    }

    /// Removes the handler.
    pub fn clear_handler(&self) {
        self.replace_handler("clear_handler", None);
    }

    fn replace_handler(&self, api: &str, handler: Option<Arc<dyn Handler>>) {
        let mut inner = self.write_inner(api);
        inner.handler = handler;
        self.bump();
        // Handler-only change: every object entry is shared.
        self.publish_locked(&mut inner, &[]);
    }

    /// `__xray_function_address`: absolute address of a function by its
    /// packed ID — the API DynCaPI cross-checks symbol mappings with.
    pub fn function_address(&self, id: PackedId) -> Option<u64> {
        let inner = self.read_inner("function_address");
        let reg = inner.registered(id.object())?;
        let entry = reg.inst.sleds.by_fid(id.function())?;
        Some(reg.base + entry.entry_offset)
    }

    /// Reverse of [`Self::function_address`]: binary search of each
    /// object's offset-sorted entry index (built at registration)
    /// instead of a linear scan over every sled entry.
    pub fn id_at_address(&self, addr: u64) -> Option<PackedId> {
        let inner = self.read_inner("id_at_address");
        for (oid, reg) in inner.objects.iter().enumerate() {
            let Some(reg) = reg else { continue };
            if addr < reg.base {
                continue;
            }
            let off = addr - reg.base;
            if let Ok(i) = reg.addr_index.binary_search_by_key(&off, |&(o, _)| o) {
                return PackedId::pack(oid as u8, reg.addr_index[i].1).ok();
            }
        }
        None
    }

    /// Object ID registered for a loader object index.
    pub fn object_id_for_process_index(&self, process_index: usize) -> Option<u8> {
        let inner = self.read_inner("object_id_for_process_index");
        inner
            .objects
            .iter()
            .enumerate()
            .find(|(_, r)| r.as_ref().is_some_and(|r| r.process_index == process_index))
            .map(|(i, _)| i as u8)
    }

    /// Total sleds across all registered objects.
    pub fn total_sleds(&self) -> usize {
        let inner = self.read_inner("total_sleds");
        inner
            .objects
            .iter()
            .flatten()
            .map(|r| r.inst.sleds.total_sleds())
            .sum()
    }

    /// Packed IDs of all currently patched functions, ordered by
    /// (object, function) — the active set the adaptation controller
    /// starts from.
    pub fn patched_ids(&self) -> Vec<PackedId> {
        let inner = self.read_inner("patched_ids");
        let mut ids = Vec::new();
        for (oid, reg) in inner.objects.iter().enumerate() {
            let Some(reg) = reg else { continue };
            for (fid, &p) in reg.patched.iter().enumerate() {
                if p {
                    if let Ok(id) = PackedId::pack(oid as u8, fid as u32) {
                        ids.push(id);
                    }
                }
            }
        }
        ids
    }

    /// Counts currently patched functions.
    pub fn patched_functions(&self) -> usize {
        let inner = self.read_inner("patched_functions");
        inner
            .objects
            .iter()
            .flatten()
            .map(|r| r.patched.iter().filter(|&&p| p).count())
            .sum()
    }
}

fn check_fid_capacity(inst: &InstrumentedObject) -> Result<(), XRayError> {
    let n = inst.sleds.num_functions();
    if n > (MAX_FUNCTION_ID as usize + 1) {
        return Err(XRayError::Id(IdError::FunctionIdOverflow { fid: n as u32 }));
    }
    Ok(())
}
