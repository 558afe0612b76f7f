//! Stackful coroutines for the simulation executor.
//!
//! The engine in `tp-core` runs every simulated environment as a [`Coro`]:
//! a resumable task with its own call stack that [`suspend`]s back to the
//! driver whenever the environment would otherwise block (waiting for its
//! scheduling turn, waiting for preemption). The driver is the one host
//! thread that runs the simulation; it resumes the coroutines in turn.
//!
//! The backend is chosen by the target architecture:
//!
//! * **x86_64**: a hand-rolled context switch that saves the System-V
//!   callee-saved registers (`rbp`, `rbx`, `r12`–`r15`), the `MXCSR`
//!   control word and the x87 control word, and swaps `rsp` onto a
//!   heap-allocated stack. A resume/suspend pair is two register swaps —
//!   no syscalls, no scheduler round trips.
//! * **Every other architecture**: one parked OS thread per coroutine with a
//!   pair of rendezvous channels standing in for the context switch.
//!
//! # Safety contract
//!
//! This is the only crate in the workspace that uses `unsafe`. The stack
//! backend is sound under two conditions:
//!
//! 1. **Coroutines never change host threads.** A stack-backend [`Coro`] is
//!    not `Send`, so it is only ever resumed by the thread that created it,
//!    and thread-affine state in its frames (thread-locals, lock guards)
//!    stays valid across a [`suspend`]. The engine still releases the
//!    simulation lock before every suspend: the driver takes it next, on
//!    the same thread.
//! 2. **Coroutines are driven to completion.** Dropping an incomplete stack
//!    coroutine frees its stack without unwinding it, leaking any
//!    interior objects. The executor drains every task (a stopping
//!    simulation unwinds its environments with its exit payload) before
//!    dropping, so nothing leaks in practice.
//!
//! Panics never cross the assembly: the coroutine entry point catches the
//! unwind and hands the payload back to the host through [`Coro::take_panic`],
//! mirroring what `std::thread::JoinHandle::join` returns for a thread.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use stack as backend;
#[cfg(not(target_arch = "x86_64"))]
use thread_impl as backend;

/// Default coroutine stack size when `TP_STACK_KB` is unset: 256 KiB.
///
/// Generous for the simulator's environments (shallow call graphs, no
/// recursion); heap pages are committed lazily by the OS, so thousands of
/// idle coroutines cost address space, not RSS.
const DEFAULT_STACK_KIB: usize = 256;

/// Floor on the coroutine stack size; below this the entry trampoline and
/// panic machinery themselves would not fit safely.
const MIN_STACK_BYTES: usize = 32 * 1024;

/// Parse a `TP_STACK_KB` value into a coroutine stack size in bytes.
/// `None`/empty means "unset" (the 256 KiB default); a set value must be a
/// positive whole number of KiB, raised to a 32 KiB floor. Anything else is
/// a hard error naming the variable — a typo such as `512k` must never
/// silently run at the default size, whose overflow panic would then ask
/// the user to raise the very knob they believe they already set.
///
/// # Errors
/// A human-readable message naming `TP_STACK_KB` and the rejected value.
pub fn parse_stack_size(raw: Option<&str>) -> Result<usize, String> {
    let trimmed = raw.map_or("", str::trim);
    if trimmed.is_empty() {
        return Ok(DEFAULT_STACK_KIB * 1024);
    }
    trimmed
        .parse::<usize>()
        .ok()
        .filter(|&kib| kib > 0)
        .and_then(|kib| kib.checked_mul(1024))
        .map(|bytes| bytes.max(MIN_STACK_BYTES))
        .ok_or_else(|| {
            format!(
                "TP_STACK_KB: `{}` is not a positive whole number of KiB (expected e.g. 256 or 1024)",
                raw.unwrap_or_default()
            )
        })
}

/// The coroutine stack size in bytes, from `TP_STACK_KB` (see
/// [`parse_stack_size`]). Read once per process. Exits with status 2 on a
/// malformed value, naming the variable — same contract as `TP_SAMPLES`.
fn default_stack_bytes() -> usize {
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| {
        parse_stack_size(std::env::var("TP_STACK_KB").ok().as_deref()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    })
}

/// Guard value written at the base (lowest address) of every stack-backend
/// coroutine stack, and mirrored as a per-task slot by the thread backend so
/// both backends share one overflow-detection contract. An overflowing
/// coroutine overwrites the base of its stack last, so a dead canary at a
/// suspend point means the stack was exhausted (or deliberately clobbered by
/// the `stack-overflow` fault class).
const CANARY: u64 = 0x7A5E_CA11_DEAD_F00D;

/// The canonical stack-overflow panic: every canary-check failure raises
/// this message, so the engine and supervisor classify overflows uniformly
/// across backends.
fn overflow_panic(stack_bytes: Option<usize>) -> ! {
    match stack_bytes {
        Some(b) => panic!(
            "stack overflow: coroutine guard canary clobbered (stack {} KiB; raise TP_STACK_KB)",
            b / 1024
        ),
        None => panic!("stack overflow: coroutine guard canary clobbered (raise TP_STACK_KB)"),
    }
}

/// Whether the running coroutine's stack guard canary is intact. Always
/// `true` from plain host code (there is no coroutine stack to guard).
pub fn canary_intact() -> bool {
    // SAFETY: `CURRENT` only ever holds the task of the coroutine running
    // on this thread, which is what the backend requires.
    current().is_none_or(|task| unsafe { backend::canary_ok(task) })
}

/// Deliberately kill the running coroutine's stack guard canary — the
/// deterministic injection point for the `stack-overflow` fault class. The
/// next canary check (every [`suspend`], or an explicit [`canary_intact`])
/// reports the overflow. No-op from plain host code.
pub fn clobber_canary() {
    if let Some(task) = current() {
        // SAFETY: as in `canary_intact`.
        unsafe { backend::clobber_canary(task) }
    }
}

thread_local! {
    /// The coroutine running on this thread, if any. Set for the duration
    /// of a resume (stack backend) or for the lifetime of the task body
    /// (thread backend); `None` in plain host code.
    static CURRENT: Cell<Option<backend::TaskPtr>> = const { Cell::new(None) };
}

fn current_replace(c: Option<backend::TaskPtr>) -> Option<backend::TaskPtr> {
    CURRENT.with(|t| t.replace(c))
}

fn current_set(c: Option<backend::TaskPtr>) {
    CURRENT.with(|t| t.set(c));
}

fn current() -> Option<backend::TaskPtr> {
    CURRENT.with(Cell::get)
}

/// `true` when called from inside a coroutine body, i.e. when [`suspend`]
/// is legal.
pub fn on_coroutine() -> bool {
    current().is_some()
}

/// Yield the running coroutine back to the host thread that resumed it.
///
/// Returns when the host calls [`Coro::resume`] again.
///
/// # Panics
///
/// Panics if called from plain host code (outside any coroutine).
pub fn suspend() {
    let task = current().expect("tp_exec::suspend() called outside a coroutine");
    // SAFETY: as in `canary_intact`; we are inside that coroutine's body.
    unsafe { backend::suspend(task) }
}

/// A resumable task with its own stack.
///
/// Created suspended; the closure does not run until the first
/// [`resume`](Coro::resume). Each resume runs the task until it either
/// [`suspend`]s (resume returns `false`) or finishes — by returning or by
/// panicking — after which resume returns `true` and the panic payload, if
/// any, is available from [`take_panic`](Coro::take_panic).
pub struct Coro(backend::Handle);

impl Coro {
    /// Create a coroutine with the default stack size.
    pub fn new(f: impl FnOnce() + Send + 'static) -> Coro {
        Self::with_stack(default_stack_bytes(), f)
    }

    /// Create a coroutine with an explicit stack size in bytes (clamped up
    /// to a safe minimum; ignored by the thread backend, whose stacks are
    /// ordinary OS thread stacks).
    pub fn with_stack(stack_bytes: usize, f: impl FnOnce() + Send + 'static) -> Coro {
        Coro(backend::new(stack_bytes, Box::new(f)))
    }

    /// Run the task until its next suspend or completion.
    ///
    /// Returns `true` once the task has completed (further resumes are a
    /// contract violation and panic).
    pub fn resume(&mut self) -> bool {
        self.0.resume()
    }

    /// `true` once the task has run to completion (returned or panicked).
    pub fn is_complete(&self) -> bool {
        self.0.is_complete()
    }

    /// Take the panic payload of a completed task, if it panicked — exactly
    /// what `JoinHandle::join` returns as `Err` for a thread.
    pub fn take_panic(&mut self) -> Option<Box<dyn Any + Send + 'static>> {
        self.0.take_panic()
    }
}

impl std::fmt::Debug for Coro {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coro")
            .field("complete", &self.is_complete())
            .finish()
    }
}

/// The x86_64 stack backend: a System-V context switch onto heap stacks.
#[cfg(target_arch = "x86_64")]
mod stack {
    use super::{current_replace, current_set};
    use std::alloc::{alloc, dealloc, Layout};
    use std::any::Any;

    /// What `CURRENT` holds while a coroutine of this backend runs.
    pub(super) type TaskPtr = *mut Inner;

    /// The host-side handle behind [`super::Coro`].
    pub(super) type Handle = StackCoro;

    /// Shared state between the host side ([`StackCoro`]) and the coroutine
    /// side (reached through the `r12` slot seeded on the fresh stack).
    /// Boxed so its address is stable across moves of the handle.
    pub(super) struct Inner {
        /// Saved `rsp` of the coroutine while it is suspended.
        co_rsp: u64,
        /// Saved `rsp` of the host thread while the coroutine runs.
        host_rsp: u64,
        complete: bool,
        closure: Option<Box<dyn FnOnce() + Send + 'static>>,
        panic: Option<Box<dyn Any + Send + 'static>>,
        stack: *mut u8,
        layout: Layout,
    }

    pub(super) struct StackCoro {
        inner: Box<Inner>,
    }

    /// Swap stacks: save callee-saved state on the current stack, store the
    /// resulting `rsp` through `save`, then load `rsp` from `restore` and
    /// pop the same state back. The `ret` at the end "returns" into the
    /// other context's `switch` call site (or the trampoline on first
    /// entry).
    ///
    /// # Safety
    ///
    /// `restore` must point at an `rsp` previously produced by this function
    /// (or by [`seed_stack`]), and that context must not be live.
    #[unsafe(naked)]
    unsafe extern "C" fn switch(save: *mut u64, restore: *const u64) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr [rsp]",
            "fnstcw [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, [rsi]",
            "ldmxcsr [rsp]",
            "fldcw [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First instruction a fresh coroutine executes: `switch`'s `ret` lands
    /// here with `r12` holding the `Inner` pointer (seeded by
    /// [`seed_stack`]). Establish the ABI frame (zero `rbp`, 16-byte-align
    /// `rsp`) and call into Rust; `entry` never returns here.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        core::arch::naked_asm!(
            "mov rdi, r12",
            "xor ebp, ebp",
            "and rsp, -16",
            "call {entry}",
            "ud2",
            entry = sym entry,
        )
    }

    /// Rust-side coroutine body. Runs the closure under `catch_unwind` so no
    /// panic ever unwinds into the naked trampoline, records the outcome,
    /// and switches back to the host for the last time.
    extern "C" fn entry(inner: *mut Inner) {
        // SAFETY: `inner` is the boxed Inner this stack was seeded with; the
        // host keeps it alive until the handle is dropped, and only this
        // thread touches it while the coroutine runs. Accesses go through
        // short-lived reborrows so host-side and coroutine-side borrows
        // never overlap in time.
        let f = unsafe { (*inner).closure.take() }.expect("fresh coroutine has its closure");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        unsafe {
            if let Err(payload) = outcome {
                (*inner).panic = Some(payload);
            }
            (*inner).complete = true;
            switch(&mut (*inner).co_rsp, &(*inner).host_rsp);
        }
        // `resume` refuses to re-enter a complete coroutine, so control can
        // never come back here. If it somehow does, the stack below us is
        // gone — abort rather than execute garbage.
        std::process::abort();
    }

    /// Power-on register image for a fresh coroutine, matching the restore
    /// half of [`switch`] (from `rsp` upward): MXCSR+FCW, `r15`–`r12`,
    /// `rbx`, `rbp`, return address.
    fn seed_stack(stack: *mut u8, size: usize, inner: *mut Inner) -> u64 {
        /// Default x86-64 FP state: MXCSR 0x1F80 (all exceptions masked,
        /// round-to-nearest) in the low word, x87 CW 0x037F at byte 4.
        const FP_DEFAULT: u64 = 0x1F80 | (0x037F << 32);
        let top = ((stack as usize + size) & !15) as *mut u64;
        // SAFETY: the 8 seeded slots lie within the freshly allocated stack
        // (size is at least MIN_STACK_BYTES).
        unsafe {
            let rsp = top.sub(8);
            rsp.add(0).write(FP_DEFAULT);
            rsp.add(1).write(0); // r15
            rsp.add(2).write(0); // r14
            rsp.add(3).write(0); // r13
            rsp.add(4).write(inner as u64); // r12: Inner for the trampoline
            rsp.add(5).write(0); // rbx
            rsp.add(6).write(0); // rbp
            rsp.add(7).write(trampoline as *const () as usize as u64); // return address
            rsp as u64
        }
    }

    pub(super) fn new(stack_bytes: usize, f: Box<dyn FnOnce() + Send + 'static>) -> StackCoro {
        let size = stack_bytes.max(super::MIN_STACK_BYTES);
        let layout = Layout::from_size_align(size, 64).expect("valid stack layout");
        let stack = STACKS.with(|pool| pool.borrow_mut().take(layout));
        // SAFETY: the stack is at least MIN_STACK_BYTES and 64-aligned, so
        // the guard slot at its base is in-bounds and aligned.
        unsafe { (stack as *mut u64).write(super::CANARY) };
        let mut inner = Box::new(Inner {
            co_rsp: 0,
            host_rsp: 0,
            complete: false,
            closure: Some(f),
            panic: None,
            stack,
            layout,
        });
        inner.co_rsp = seed_stack(stack, size, &mut *inner);
        StackCoro { inner }
    }

    /// Whether the guard slot at the base of this coroutine's stack still
    /// holds [`super::CANARY`].
    ///
    /// # Safety
    ///
    /// `inner` must be the live `Inner` of the coroutine currently running
    /// on this thread (the pointer stored in `CURRENT`).
    pub(super) unsafe fn canary_ok(inner: *mut Inner) -> bool {
        ((*inner).stack as *const u64).read() == super::CANARY
    }

    /// Overwrite the guard slot, simulating the final write of a stack
    /// overflow (the `stack-overflow` fault class).
    ///
    /// # Safety
    ///
    /// Same contract as [`canary_ok`].
    pub(super) unsafe fn clobber_canary(inner: *mut Inner) {
        ((*inner).stack as *mut u64).write(0);
    }

    impl StackCoro {
        pub(super) fn resume(&mut self) -> bool {
            assert!(!self.inner.complete, "resume on a completed coroutine");
            let inner: *mut Inner = &mut *self.inner;
            let prev = current_replace(Some(inner));
            // SAFETY: `co_rsp` was produced by `seed_stack` or by the
            // suspend half of `switch`; the coroutine is suspended (not
            // live), which `complete == false` plus exclusive ownership of
            // the handle guarantees.
            unsafe { switch(&mut (*inner).host_rsp, &(*inner).co_rsp) };
            current_set(prev);
            self.inner.complete
        }

        pub(super) fn is_complete(&self) -> bool {
            self.inner.complete
        }

        pub(super) fn take_panic(&mut self) -> Option<Box<dyn Any + Send + 'static>> {
            self.inner.panic.take()
        }
    }

    /// Coroutine-side half of the switch: save the coroutine context, resume
    /// the host.
    ///
    /// # Safety
    ///
    /// Must be called on the thread currently running this coroutine (i.e.
    /// from inside its closure), with `inner` the pointer stored in the
    /// thread's `CURRENT` slot.
    pub(super) unsafe fn suspend(inner: *mut Inner) {
        if !canary_ok(inner) {
            super::overflow_panic(Some((*inner).layout.size()));
        }
        switch(&mut (*inner).co_rsp, &(*inner).host_rsp);
    }

    impl Drop for Inner {
        fn drop(&mut self) {
            // An incomplete coroutine's interior objects are leaked with the
            // stack (documented; the executor drains every task first).
            // `Inner` is not `Send`, so this is the thread that allocated
            // the stack; a pool already torn down at thread exit frees it.
            let (stack, layout) = (self.stack, self.layout);
            if STACKS
                .try_with(|pool| pool.borrow_mut().0.push((stack, layout)))
                .is_err()
            {
                // SAFETY: allocated by `StackPool::take` with this layout.
                unsafe { dealloc(stack, layout) };
            }
        }
    }

    /// Stacks of finished coroutines, kept for the next coroutine on this
    /// thread. Reusing the same pages keeps memory flat across runs: freed
    /// 256 KiB blocks go back to the allocator's main heap, where the small
    /// allocations the environments make in between fragment them, so a
    /// process that runs many fleets would otherwise keep growing its
    /// resident set.
    struct StackPool(Vec<(*mut u8, Layout)>);

    impl StackPool {
        /// A pooled stack of exactly `layout`, or a fresh allocation.
        fn take(&mut self, layout: Layout) -> *mut u8 {
            if let Some(i) = self.0.iter().rposition(|&(_, l)| l == layout) {
                return self.0.swap_remove(i).0;
            }
            // SAFETY: layout has non-zero size.
            let stack = unsafe { alloc(layout) };
            assert!(!stack.is_null(), "coroutine stack allocation failed");
            stack
        }
    }

    impl Drop for StackPool {
        fn drop(&mut self) {
            for &(stack, layout) in &self.0 {
                // SAFETY: every pooled stack came from `take` with its
                // recorded layout and is owned by no coroutine.
                unsafe { dealloc(stack, layout) };
            }
        }
    }

    thread_local! {
        static STACKS: std::cell::RefCell<StackPool> =
            const { std::cell::RefCell::new(StackPool(Vec::new())) };
    }
}

/// The portable thread backend of non-x86_64 targets: one parked OS thread
/// per coroutine and a pair of rendezvous channels standing in for the
/// context switch.
#[cfg(not(target_arch = "x86_64"))]
mod thread_impl {
    use super::{current_replace, current_set};
    use std::any::Any;
    use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

    /// What `CURRENT` holds while a coroutine of this backend runs.
    pub(super) type TaskPtr = *const TaskSide;

    /// The host-side handle behind [`super::Coro`].
    pub(super) type Handle = ThreadCoro;

    enum Status {
        Yielded,
        Done(Option<Box<dyn Any + Send + 'static>>),
    }

    /// The task thread's ends of the rendezvous channels; `CURRENT` points
    /// at this (it lives on the task thread's own stack) while the closure
    /// runs.
    pub(super) struct TaskSide {
        status_tx: SyncSender<Status>,
        go_rx: Receiver<()>,
        /// Stand-in for the stack backend's base-of-stack guard slot: OS
        /// thread stacks have their own guard pages, but keeping a live
        /// canary per task gives both backends the identical
        /// clobber/check/panic contract for the `stack-overflow` fault.
        canary: std::cell::Cell<u64>,
    }

    /// Unwind payload used to cancel a task whose handle was dropped before
    /// completion: unwinds the closure (running destructors) without being
    /// reported as a real panic.
    struct Cancelled;

    pub(super) struct ThreadCoro {
        go_tx: Option<SyncSender<()>>,
        status_rx: Receiver<Status>,
        handle: Option<std::thread::JoinHandle<()>>,
        complete: bool,
        panic: Option<Box<dyn Any + Send + 'static>>,
    }

    /// Spawn the parked task thread. OS thread stacks are sized by the
    /// platform, so `_stack_bytes` is ignored.
    pub(super) fn new(_stack_bytes: usize, f: Box<dyn FnOnce() + Send + 'static>) -> ThreadCoro {
        let (go_tx, go_rx) = sync_channel::<()>(1);
        let (status_tx, status_rx) = sync_channel::<Status>(1);
        let handle = std::thread::Builder::new()
            .name("tp-exec-task".into())
            .spawn(move || {
                let task = TaskSide {
                    status_tx,
                    go_rx,
                    canary: std::cell::Cell::new(super::CANARY),
                };
                // Stay parked until the first resume (a dropped handle never
                // runs the closure at all, matching the stack backend).
                if task.go_rx.recv().is_err() {
                    return;
                }
                let prev = current_replace(Some(&task as *const TaskSide));
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                current_set(prev);
                let payload = match outcome {
                    Ok(()) => None,
                    Err(p) if p.downcast_ref::<Cancelled>().is_some() => return,
                    Err(p) => Some(p),
                };
                let _ = task.status_tx.send(Status::Done(payload));
            })
            .expect("spawn coroutine task thread");
        ThreadCoro {
            go_tx: Some(go_tx),
            status_rx,
            handle: Some(handle),
            complete: false,
            panic: None,
        }
    }

    /// Task-side suspend: report `Yielded`, park until the next resume. A
    /// closed channel in either direction means the handle was dropped —
    /// cancel by unwinding.
    ///
    /// # Safety
    ///
    /// Must be called on the task thread owning `task` (guaranteed by
    /// `CURRENT` being thread-local).
    pub(super) unsafe fn suspend(task: *const TaskSide) {
        let task = &*task;
        if task.canary.get() != super::CANARY {
            super::overflow_panic(None);
        }
        if task.status_tx.send(Status::Yielded).is_err() {
            std::panic::panic_any(Cancelled);
        }
        if task.go_rx.recv().is_err() {
            std::panic::panic_any(Cancelled);
        }
    }

    /// Whether this task's guard canary is intact.
    ///
    /// # Safety
    ///
    /// Must be called on the task thread owning `task`.
    pub(super) unsafe fn canary_ok(task: *const TaskSide) -> bool {
        (*task).canary.get() == super::CANARY
    }

    /// Kill this task's guard canary (the `stack-overflow` fault class).
    ///
    /// # Safety
    ///
    /// Must be called on the task thread owning `task`.
    pub(super) unsafe fn clobber_canary(task: *const TaskSide) {
        (*task).canary.set(0);
    }

    impl ThreadCoro {
        pub(super) fn resume(&mut self) -> bool {
            assert!(!self.complete, "resume on a completed coroutine");
            let go = self
                .go_tx
                .as_ref()
                .expect("go channel open while incomplete");
            go.send(()).expect("task thread alive while incomplete");
            match self
                .status_rx
                .recv()
                .expect("task thread reports an outcome")
            {
                Status::Yielded => false,
                Status::Done(payload) => {
                    self.panic = payload;
                    self.complete = true;
                    if let Some(h) = self.handle.take() {
                        let _ = h.join();
                    }
                    true
                }
            }
        }

        pub(super) fn is_complete(&self) -> bool {
            self.complete
        }

        pub(super) fn take_panic(&mut self) -> Option<Box<dyn Any + Send + 'static>> {
            self.panic.take()
        }
    }

    impl Drop for ThreadCoro {
        fn drop(&mut self) {
            if !self.complete {
                // Closing the go channel makes the parked task cancel itself
                // at its current suspend point (or never start).
                self.go_tx = None;
                while self.status_rx.recv().is_ok() {}
            }
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn resume_suspend_interleaves_with_host() {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        let mut co = Coro::new(move || {
            for _ in 0..3 {
                n2.fetch_add(1, Ordering::SeqCst);
                suspend();
            }
        });
        assert_eq!(n.load(Ordering::SeqCst), 0, "created suspended");
        assert!(!co.resume());
        assert_eq!(n.load(Ordering::SeqCst), 1);
        assert!(!co.resume());
        assert!(!co.resume());
        assert_eq!(n.load(Ordering::SeqCst), 3);
        assert!(co.resume(), "final resume runs to completion");
        assert!(co.is_complete());
        assert!(co.take_panic().is_none());
    }

    #[test]
    fn panic_payload_is_captured_not_propagated() {
        struct Marker(u32);
        let mut co = Coro::new(|| {
            suspend();
            std::panic::panic_any(Marker(42));
        });
        assert!(!co.resume());
        assert!(co.resume(), "panicking resume completes the task");
        let p = co.take_panic().expect("panic captured");
        assert_eq!(p.downcast_ref::<Marker>().expect("payload intact").0, 42);
    }

    #[test]
    fn on_coroutine_tracks_context() {
        assert!(!on_coroutine(), "host code is not a coroutine");
        let saw = Arc::new(AtomicUsize::new(0));
        let saw2 = saw.clone();
        let mut co = Coro::new(move || {
            saw2.store(on_coroutine() as usize, Ordering::SeqCst);
        });
        assert!(co.resume());
        assert_eq!(saw.load(Ordering::SeqCst), 1, "inside body: on_coroutine");
        assert!(!on_coroutine(), "restored after completion");
    }

    #[test]
    fn thousand_interleaved_coroutines() {
        // The scale the executor needs: far more tasks than any sane host
        // thread count, round-robined to completion. Small explicit stacks
        // keep the test light.
        let n = 1000usize;
        let counter = Arc::new(AtomicUsize::new(0));
        let mut tasks: Vec<Coro> = (0..n)
            .map(|_| {
                let c = counter.clone();
                Coro::with_stack(MIN_STACK_BYTES, move || {
                    for _ in 0..3 {
                        c.fetch_add(1, Ordering::SeqCst);
                        suspend();
                    }
                })
            })
            .collect();
        let mut live = n;
        while live > 0 {
            for co in &mut tasks {
                if !co.is_complete() && co.resume() {
                    live -= 1;
                }
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 3 * n);
    }

    #[test]
    fn canary_is_intact_on_healthy_coroutines_and_host() {
        assert!(canary_intact(), "host code always reports intact");
        clobber_canary(); // no-op on the host
        assert!(canary_intact());
        let mut co = Coro::new(|| {
            assert!(canary_intact(), "fresh coroutine starts intact");
            suspend();
            assert!(canary_intact(), "still intact after a round trip");
        });
        assert!(!co.resume());
        assert!(co.resume());
        assert!(co.take_panic().is_none());
    }

    /// Runs on whichever backend the target compiles; the two backends
    /// share the clobber/check/panic contract.
    #[test]
    fn clobbered_canary_panics_at_next_suspend_on_both_backends() {
        let mut co = Coro::new(|| {
            suspend();
            clobber_canary();
            assert!(!canary_intact());
            suspend(); // must raise the canonical overflow panic
            unreachable!("suspend past a dead canary");
        });
        assert!(!co.resume());
        assert!(co.resume(), "overflow panic completes the task");
        let p = co.take_panic().expect("overflow panic captured");
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("string panic payload");
        assert!(
            msg.starts_with("stack overflow: coroutine guard canary clobbered"),
            "canonical message, got: {msg}"
        );
    }

    #[test]
    fn dropping_incomplete_coroutine_is_safe() {
        let mut co = Coro::new(|| {
            suspend();
            suspend();
        });
        assert!(!co.resume());
        drop(co); // mid-flight: thread backend cancels, stack backend leaks interior
    }

    #[test]
    fn stack_size_parses_or_errors_naming_the_variable() {
        assert_eq!(parse_stack_size(None), Ok(256 * 1024));
        assert_eq!(parse_stack_size(Some("")), Ok(256 * 1024));
        assert_eq!(parse_stack_size(Some("  ")), Ok(256 * 1024));
        assert_eq!(parse_stack_size(Some("512")), Ok(512 * 1024));
        assert_eq!(parse_stack_size(Some(" 1024 ")), Ok(1024 * 1024));
        assert_eq!(parse_stack_size(Some("8")), Ok(MIN_STACK_BYTES));
        for bad in ["512k", "0", "-1", "1.5", "lots", "18014398509481984"] {
            let err = parse_stack_size(Some(bad)).unwrap_err();
            assert!(err.contains("TP_STACK_KB"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }
}
