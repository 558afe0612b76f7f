//! Kernel objects, capabilities and object arenas.
//!
//! seL4 controls all access through capabilities (§2.4): a capability names
//! a kernel object and carries access rights. All kernel-object memory is
//! retyped from user-supplied `Untyped` memory, so colouring user memory
//! colours all dynamically allocated kernel data (Figure 2). The paper adds
//! two object types: `Kernel_Image` (a kernel; the clone right gates
//! `Kernel_Clone`) and `Kernel_Memory` (physical memory mappable into a
//! kernel image).

use crate::layout::ImageFrames;
use std::collections::VecDeque;
use tp_sim::{Asid, ColorSet, PhysMap};

/// Index of a capability within a thread's CSpace.
pub type CapIdx = usize;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub usize);
    };
}

id_type!(
    /// A thread control block.
    TcbId
);
id_type!(
    /// An IPC endpoint.
    EpId
);
id_type!(
    /// A notification object.
    NtfnId
);
id_type!(
    /// A kernel image (the paper's `Kernel_Image` object).
    ImageId
);
id_type!(
    /// Kernel memory backing a cloned image (`Kernel_Memory`).
    KmemId
);
id_type!(
    /// An untyped memory object.
    UntypedId
);
id_type!(
    /// A virtual address space (VSpace root).
    VSpaceId
);
id_type!(
    /// A security domain (a colour partition with its own kernel image).
    DomainId
);

/// Capability access rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rights {
    /// Read / receive.
    pub read: bool,
    /// Write / send.
    pub write: bool,
    /// Grant (transfer capabilities over IPC).
    pub grant: bool,
    /// The clone right on a `Kernel_Image` (§4.1): without it, a holder
    /// cannot create further kernels.
    pub clone: bool,
}

impl Rights {
    /// All rights.
    #[must_use]
    pub fn all() -> Self {
        Rights {
            read: true,
            write: true,
            grant: true,
            clone: true,
        }
    }

    /// Read+write without grant or clone.
    #[must_use]
    pub fn rw() -> Self {
        Rights {
            read: true,
            write: true,
            grant: false,
            clone: false,
        }
    }

    /// Derive a weaker capability: rights can only be removed (§4.1: "the
    /// initial process can prevent other threads from cloning kernels by
    /// handing them only derived capabilities with the clone right
    /// stripped").
    #[must_use]
    pub fn mask(self, other: Rights) -> Rights {
        Rights {
            read: self.read && other.read,
            write: self.write && other.write,
            grant: self.grant && other.grant,
            clone: self.clone && other.clone,
        }
    }
}

/// The object a capability refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapObject {
    /// Untyped memory.
    Untyped(UntypedId),
    /// A thread.
    Tcb(TcbId),
    /// An endpoint.
    Endpoint(EpId),
    /// A notification.
    Notification(NtfnId),
    /// A kernel image.
    KernelImage(ImageId),
    /// Kernel memory.
    KernelMemory(KmemId),
    /// An IRQ handler for one interrupt source.
    IrqHandler(u32),
}

/// A capability: an object reference plus rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capability {
    /// Referenced object.
    pub obj: CapObject,
    /// Access rights.
    pub rights: Rights,
}

/// A simple generational arena for kernel objects.
#[derive(Debug, Clone)]
pub struct Arena<T> {
    items: Vec<Option<T>>,
    /// Freed slots in `items`: while there are none, `alloc` appends
    /// without scanning for the lowest free slot.
    holes: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            items: Vec::new(),
            holes: 0,
        }
    }
}

impl<T> Arena<T> {
    /// Create an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an object, returning its index.
    pub fn alloc(&mut self, item: T) -> usize {
        if self.holes > 0 {
            let i = self.items.iter().position(Option::is_none).expect("a hole");
            self.items[i] = Some(item);
            self.holes -= 1;
            i
        } else {
            self.items.push(Some(item));
            self.items.len() - 1
        }
    }

    /// Get a reference; `None` if freed or out of range.
    #[must_use]
    pub fn get(&self, idx: usize) -> Option<&T> {
        self.items.get(idx).and_then(Option::as_ref)
    }

    /// Get a mutable reference.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut T> {
        self.items.get_mut(idx).and_then(Option::as_mut)
    }

    /// Remove an object.
    pub fn remove(&mut self, idx: usize) -> Option<T> {
        let item = self.items.get_mut(idx).and_then(Option::take);
        self.holes += usize::from(item.is_some());
        item
    }

    /// Iterate over live objects.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().map(|t| (i, t)))
    }

    /// Number of live objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len() - self.holes
    }

    /// Whether the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Untyped memory: a pool of frames of (if coloured) a single colour set.
///
/// Colour pools are arithmetic sequences of frame numbers (colours
/// interleave every page), so the pool stores an explicit free list.
/// The live list is `free[head..]`: carving consumes a prefix, so the
/// frames before `head` are dead and neither cloned nor shown.
pub struct Untyped {
    free: Vec<u64>,
    head: usize,
    /// The colours this pool draws from.
    pub colors: ColorSet,
    total: usize,
}

impl Clone for Untyped {
    fn clone(&self) -> Self {
        Untyped {
            free: self.free_frames().to_vec(),
            head: 0,
            colors: self.colors,
            total: self.total,
        }
    }
}

impl std::fmt::Debug for Untyped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Untyped")
            .field("free", &self.free_frames())
            .field("colors", &self.colors)
            .field("total", &self.total)
            .finish()
    }
}

impl Untyped {
    /// Create a pool over the given frames.
    #[must_use]
    pub fn new(mut frames: Vec<u64>, colors: ColorSet) -> Self {
        // Allocate low frames first.
        frames.sort_unstable_by(|a, b| b.cmp(a));
        let total = frames.len();
        Untyped {
            free: frames,
            head: 0,
            colors,
            total,
        }
    }

    /// Allocate `n` frames; `None` if exhausted (allocation is
    /// all-or-nothing).
    pub fn alloc(&mut self, n: usize) -> Option<Vec<u64>> {
        if self.available() < n {
            return None;
        }
        Some(self.free.split_off(self.free.len() - n))
    }

    /// Return frames to the pool (object destruction reverts to Untyped).
    pub fn free(&mut self, frames: impl IntoIterator<Item = u64>) {
        self.free.extend(frames);
    }

    /// Extract up to `max` frames matching `pred`, preserving the pool's
    /// allocation order for the rest. Costs O(frames scanned up to the
    /// `max`-th match), not O(pool): the scanned window is compacted in
    /// order against the unscanned rest, and the slots the taken frames
    /// vacate join the dead prefix. Domain carving calls this once per
    /// domain on the boot pool, so a whole-pool pass made a fleet boot
    /// quadratic in its tenant count.
    pub fn take_matching(&mut self, max: usize, mut pred: impl FnMut(u64) -> bool) -> Vec<u64> {
        let mut taken = Vec::new();
        let mut kept = self.head;
        let mut scan = self.head;
        while scan < self.free.len() && taken.len() < max {
            let f = self.free[scan];
            if pred(f) {
                taken.push(f);
            } else {
                self.free[kept] = f;
                kept += 1;
            }
            scan += 1;
        }
        // Slide the kept frames up against the unscanned rest.
        self.free
            .copy_within(self.head..kept, self.head + taken.len());
        self.head += taken.len();
        taken
    }

    /// Remaining frames.
    #[must_use]
    pub fn available(&self) -> usize {
        self.free.len() - self.head
    }

    /// Pool size at creation.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// The free list in allocation order (highest frame allocated last).
    /// Read-only view for `Kernel::state_hash`: the exact order matters,
    /// because allocation pops from the tail.
    #[must_use]
    pub fn free_frames(&self) -> &[u64] {
        &self.free[self.head..]
    }
}

/// Scheduling / blocking state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable (ready or running).
    Ready,
    /// Blocked sending on an endpoint.
    BlockedSend(EpId),
    /// Blocked receiving on an endpoint.
    BlockedRecv(EpId),
    /// Blocked on a `Call`, waiting for the reply.
    BlockedReply,
    /// Blocked waiting on a notification.
    BlockedNtfn(NtfnId),
    /// Sleeping until the start of its domain's next time slot.
    SleepingUntilSlice,
    /// Exited.
    Exited,
}

/// A thread control block.
#[derive(Debug, Clone)]
pub struct Tcb {
    /// Scheduling priority (0 = lowest, 255 = highest).
    pub priority: u8,
    /// The core this thread is pinned to.
    pub core: usize,
    /// The thread's address space.
    pub vspace: VSpaceId,
    /// The domain the thread belongs to.
    pub domain: DomainId,
    /// The kernel image handling this thread's system calls (§4.1: "we add
    /// the capability of the kernel responsible for handling its system
    /// calls to each thread's TCB").
    pub image: ImageId,
    /// The frame holding this TCB's kernel object data (coloured memory).
    pub obj_frame: u64,
    /// Current state.
    pub state: ThreadState,
    /// The thread's capability space.
    pub cspace: Vec<Capability>,
    /// Value being transferred by a pending IPC.
    pub ipc_msg: u64,
    /// Caller blocked on this thread's reply (server side of `Call`).
    pub reply_to: Option<TcbId>,
}

/// An IPC endpoint: a rendezvous queue.
#[derive(Debug, Clone, Default)]
pub struct Endpoint {
    /// Threads blocked sending.
    pub send_queue: VecDeque<TcbId>,
    /// Threads blocked receiving.
    pub recv_queue: VecDeque<TcbId>,
    /// Frame holding the endpoint object.
    pub obj_frame: u64,
}

/// A notification object: a data word plus waiters.
#[derive(Debug, Clone, Default)]
pub struct Notification {
    /// Accumulated signal word.
    pub word: u64,
    /// Threads blocked waiting.
    pub waiters: VecDeque<TcbId>,
    /// Frame holding the object.
    pub obj_frame: u64,
}

/// A kernel image: the paper's `Kernel_Image` object (§4.1).
#[derive(Debug, Clone)]
pub struct KernelImage {
    /// Physical frames of text/rodata/data/stack/flush buffers.
    pub layout: ImageFrames,
    /// The kernel address space identifier.
    pub asid: Asid,
    /// Backing memory (`None` for the boot image, whose memory is never
    /// handed to userland so an idle thread always survives, §4.4).
    pub kmem: Option<KmemId>,
    /// IRQs associated with this kernel (`Kernel_SetInt`, §4.2).
    pub irqs: Vec<u32>,
    /// Configured domain-switch padding latency in cycles (Requirement 4;
    /// a user-controlled kernel-image attribute, §4.3).
    pub pad_cycles: u64,
    /// Bitmap of cores this kernel is currently running on (used by the
    /// destruction protocol, §4.4).
    pub running_on: u64,
    /// Invalidated but not yet destroyed (§4.4 "zombie").
    pub zombie: bool,
    /// The image this one was cloned from (revoking an ancestor destroys
    /// the whole clone subtree, §4.1).
    pub parent: Option<ImageId>,
}

/// Kernel memory: frames retyped to back a cloned kernel image.
#[derive(Debug, Clone)]
pub struct KernelMemory {
    /// The frames.
    pub frames: Vec<u64>,
    /// The image mapped onto this memory, once cloned.
    pub image: Option<ImageId>,
}

/// A virtual address space.
#[derive(Debug, Clone)]
pub struct VSpace {
    /// The hardware ASID.
    pub asid: Asid,
    /// The functional page table.
    pub map: PhysMap,
    /// Bump allocator for user mappings.
    pub next_va: u64,
    /// Domain owning the VSpace.
    pub domain: DomainId,
}

/// A security domain: a colour partition, its kernel image and memory pool.
#[derive(Debug, Clone)]
pub struct Domain {
    /// The domain's page colours.
    pub colors: ColorSet,
    /// The kernel image serving this domain.
    pub image: ImageId,
    /// The domain's untyped pool.
    pub pool: UntypedId,
    /// Notification bound to the domain's timer IRQ, if any.
    pub timer_ntfn: Option<NtfnId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_alloc_reuses_slots() {
        let mut a: Arena<u32> = Arena::new();
        let i = a.alloc(10);
        let j = a.alloc(20);
        assert_ne!(i, j);
        a.remove(i);
        let k = a.alloc(30);
        assert_eq!(k, i, "freed slot should be reused");
        assert_eq!(a.len(), 2);
        assert_eq!(*a.get(j).unwrap(), 20);
        assert!(a.get(99).is_none());
    }

    #[test]
    fn rights_can_only_shrink() {
        let all = Rights::all();
        let no_clone = Rights {
            clone: false,
            ..Rights::all()
        };
        let derived = all.mask(no_clone);
        assert!(!derived.clone);
        // Masking with all() again cannot restore the right.
        assert!(!derived.mask(Rights::all()).clone);
    }

    #[test]
    fn untyped_alloc_and_exhaustion() {
        let mut u = Untyped::new((0..10).collect(), ColorSet::all(8));
        let a = u.alloc(4).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(u.available(), 6);
        assert!(u.alloc(7).is_none(), "all-or-nothing");
        assert_eq!(u.available(), 6);
        u.free(a);
        assert_eq!(u.available(), 10);
    }

    #[test]
    fn untyped_allocates_low_frames_first() {
        let mut u = Untyped::new(vec![8, 0, 4], ColorSet::all(4));
        assert_eq!(u.alloc(1).unwrap(), vec![0]);
    }
}
