//! A Win32-thread-style distributed thread API, as a HAMSTER
//! programming model.
//!
//! The largest adapter of the paper's Table 2: Win32 works through
//! generic HANDLEs and a uniform `WaitForSingleObject`, so the adapter
//! carries a handle table and per-object wait semantics (threads,
//! mutexes, auto/manual-reset events, semaphores) — all composed from
//! HAMSTER services plus the shared-memory wait queues of
//! [`crate::waitq`].

use crate::waitq::{WaitQueue, QUEUE_BYTES};
use hamster_core::{GlobalAddr, Hamster, TaskHandle};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

const WIN_MUTEX_BASE: u32 = 0x0200_0000;
const WIN_GUARD_BASE: u32 = 0x0300_0000;
const WIN_EVENT_BASE: u32 = 0x0700_0000;

/// An opaque object handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(u32);

enum Object {
    Thread(TaskHandle),
    Mutex { lock: u32 },
    /// Event state lives in global memory: `[signalled: u64][queue]`.
    Event { state: GlobalAddr, queue: WaitQueue, manual_reset: bool, guard: u32 },
    /// Semaphore state: `[count: u64][queue]`.
    Semaphore { state: GlobalAddr, queue: WaitQueue, guard: u32 },
}

/// The Win32-model environment of one node.
pub struct Win32 {
    ham: Hamster,
    objects: Mutex<HashMap<Handle, Object>>,
    next_handle: AtomicU32,
    next_local: AtomicU32,
    next_event_id: AtomicU32,
}

impl Win32 {
    /// Bind the model to a node.
    pub fn init(ham: Hamster) -> Win32 {
        Win32 {
            ham,
            objects: Mutex::new(HashMap::new()),
            next_handle: AtomicU32::new(1),
            next_local: AtomicU32::new(0),
            next_event_id: AtomicU32::new(0),
        }
    }

    fn insert(&self, obj: Object) -> Handle {
        let h = Handle(self.next_handle.fetch_add(1, Ordering::Relaxed));
        self.objects.lock().insert(h, obj);
        h
    }

    /// `GetCurrentProcessorNumber`-ish: the node this environment is on.
    pub fn current_node(&self) -> usize {
        self.ham.task().rank()
    }

    /// `CreateThread`, with explicit node placement (forwarded).
    pub fn create_thread_on(
        &self,
        node: usize,
        f: impl FnOnce(Hamster) + Send + 'static,
    ) -> Handle {
        self.insert(Object::Thread(self.ham.task().remote_exec(node, f)))
    }

    /// `CreateThread` with round-robin placement.
    pub fn create_thread(&self, f: impl FnOnce(Hamster) + Send + 'static) -> Handle {
        let n = self.ham.task().nodes();
        let node =
            (self.current_node() + 1 + self.next_local.fetch_add(1, Ordering::Relaxed) as usize) % n;
        self.create_thread_on(node, f)
    }

    /// `CreateMutex`. Must be minted in lockstep across nodes (or the
    /// id shared through global memory); `n` names the mutex.
    pub fn create_mutex(&self, n: u32) -> Handle {
        self.insert(Object::Mutex { lock: WIN_MUTEX_BASE + n })
    }

    /// `CreateEvent`. Allocates shared state collectively; `manual_reset`
    /// selects Win32's manual- vs auto-reset semantics.
    pub fn create_event(&self, manual_reset: bool, n: u32) -> Handle {
        let region = self.ham.mem().alloc_default(8 + QUEUE_BYTES).expect("CreateEvent");
        self.insert(Object::Event {
            state: region.addr(),
            queue: WaitQueue::at(region.addr().add(8)),
            manual_reset,
            guard: WIN_GUARD_BASE + n,
        })
    }

    /// `CreateSemaphore` with an initial count; `n` names it.
    pub fn create_semaphore(&self, initial: u64, n: u32) -> Handle {
        let region = self.ham.mem().alloc_default(8 + QUEUE_BYTES).expect("CreateSemaphore");
        self.ham.mem().write_u64(region.addr(), initial);
        self.insert(Object::Semaphore {
            state: region.addr(),
            queue: WaitQueue::at(region.addr().add(8)),
            guard: WIN_GUARD_BASE + 0x8000 + n,
        })
    }

    /// `WaitForSingleObject` (INFINITE): join a thread, acquire a
    /// mutex, wait for an event, or decrement a semaphore.
    pub fn wait_for_single_object(&self, h: Handle) {
        enum Plan {
            Join(TaskHandle),
            Lock(u32),
            Event { state: GlobalAddr, queue: WaitQueue, manual: bool, guard: u32 },
            Sem { state: GlobalAddr, queue: WaitQueue, guard: u32 },
        }
        let plan = {
            let g = self.objects.lock();
            match g.get(&h).expect("invalid handle") {
                Object::Thread(t) => Plan::Join(*t),
                Object::Mutex { lock } => Plan::Lock(*lock),
                Object::Event { state, queue, manual_reset, guard } => Plan::Event {
                    state: *state,
                    queue: *queue,
                    manual: *manual_reset,
                    guard: *guard,
                },
                Object::Semaphore { state, queue, guard } => {
                    Plan::Sem { state: *state, queue: *queue, guard: *guard }
                }
            }
        };
        match plan {
            Plan::Join(t) => self.ham.task().join(t),
            Plan::Lock(l) => self.ham.cons().acquire_scope(l),
            Plan::Event { state, queue, manual, guard } => {
                self.ham.cons().acquire_scope(guard);
                let signalled = self.ham.mem().read_u64(state) != 0;
                if signalled {
                    if !manual {
                        self.ham.mem().write_u64(state, 0); // auto-reset consumes
                    }
                    self.ham.cons().release_scope(guard);
                } else {
                    let ev = WIN_EVENT_BASE
                        + self.next_event_id.fetch_add(1, Ordering::Relaxed) % 0x0100_0000;
                    queue.push(&self.ham, self.current_node(), ev);
                    self.ham.cons().release_scope(guard);
                    self.ham.sync().wait_event(ev);
                }
            }
            Plan::Sem { state, queue, guard } => loop {
                self.ham.cons().acquire_scope(guard);
                let count = self.ham.mem().read_u64(state);
                if count > 0 {
                    self.ham.mem().write_u64(state, count - 1);
                    self.ham.cons().release_scope(guard);
                    return;
                }
                let ev = WIN_EVENT_BASE
                    + self.next_event_id.fetch_add(1, Ordering::Relaxed) % 0x0100_0000;
                queue.push(&self.ham, self.current_node(), ev);
                self.ham.cons().release_scope(guard);
                self.ham.sync().wait_event(ev);
            },
        }
    }

    /// `WaitForMultipleObjects` with `bWaitAll = TRUE`.
    pub fn wait_for_multiple_objects(&self, hs: &[Handle]) {
        for &h in hs {
            self.wait_for_single_object(h);
        }
    }

    /// `ReleaseMutex`.
    pub fn release_mutex(&self, h: Handle) {
        let lock = match self.objects.lock().get(&h) {
            Some(Object::Mutex { lock }) => *lock,
            _ => panic!("ReleaseMutex on non-mutex handle"),
        };
        self.ham.cons().release_scope(lock);
    }

    /// `SetEvent`: signal; wakes one waiter (auto-reset) or all waiters
    /// and latches (manual-reset).
    pub fn set_event(&self, h: Handle) {
        let (state, queue, manual, guard) = match self.objects.lock().get(&h) {
            Some(Object::Event { state, queue, manual_reset, guard }) => {
                (*state, *queue, *manual_reset, *guard)
            }
            _ => panic!("SetEvent on non-event handle"),
        };
        self.ham.cons().acquire_scope(guard);
        if manual {
            self.ham.mem().write_u64(state, 1);
            queue.wake_all(&self.ham);
        } else if !queue.wake_one(&self.ham) {
            self.ham.mem().write_u64(state, 1);
        }
        self.ham.cons().release_scope(guard);
    }

    /// `ResetEvent` (manual-reset events).
    pub fn reset_event(&self, h: Handle) {
        let (state, guard) = match self.objects.lock().get(&h) {
            Some(Object::Event { state, guard, .. }) => (*state, *guard),
            _ => panic!("ResetEvent on non-event handle"),
        };
        self.ham.cons().acquire_scope(guard);
        self.ham.mem().write_u64(state, 0);
        self.ham.cons().release_scope(guard);
    }

    /// `ReleaseSemaphore`.
    pub fn release_semaphore(&self, h: Handle, n: u64) {
        let (state, queue, guard) = match self.objects.lock().get(&h) {
            Some(Object::Semaphore { state, queue, guard }) => (*state, *queue, *guard),
            _ => panic!("ReleaseSemaphore on non-semaphore handle"),
        };
        self.ham.cons().acquire_scope(guard);
        let count = self.ham.mem().read_u64(state);
        self.ham.mem().write_u64(state, count + n);
        for _ in 0..n {
            if !queue.wake_one(&self.ham) {
                break;
            }
        }
        self.ham.cons().release_scope(guard);
    }

    /// `CloseHandle`.
    pub fn close_handle(&self, h: Handle) {
        self.objects.lock().remove(&h);
    }

    /// `Sleep` (virtual milliseconds).
    pub fn sleep(&self, ms: u64) {
        self.ham.compute(ms * 1_000_000);
    }

    /// `InterlockedIncrement` on a shared u64.
    pub fn interlocked_increment(&self, addr: GlobalAddr) -> u64 {
        self.ham.sync().fetch_add_u64(addr, 1) + 1
    }

    /// The underlying HAMSTER handle.
    pub fn ham(&self) -> &Hamster {
        &self.ham
    }
}
