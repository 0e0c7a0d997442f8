//! R4 fixture: allocation inside a hot module (`pool.rs` is on the
//! HOT_FILES list).

pub struct Pool {
    slots: Vec<u64>,
}

impl Pool {
    /// Constructors are cold: allocation here is fine.
    pub fn new(n: usize) -> Self {
        Self {
            slots: Vec::with_capacity(n),
        }
    }

    /// `with_`-prefixed helpers are cold too.
    pub fn with_slots(slots: Vec<u64>) -> Self {
        let copy = slots.clone();
        Self { slots: copy }
    }

    /// A per-event handler: allocations flagged.
    pub fn admit(&mut self, id: u64) -> Vec<u64> {
        let mut scratch = Vec::new();
        scratch.push(id);
        let snapshot = self.slots.clone();
        let boxed = Box::new(id);
        scratch.push(*boxed);
        let mut sized = Vec::with_capacity(4);
        sized.extend(vec![id; 2]);
        snapshot
    }

    /// Suppressed allocation inside a hot handler.
    pub fn drain(&mut self) -> Vec<u64> {
        let out = self.slots.to_vec(); // ndslint::allow(no-alloc-in-hot-path, reason = "drain runs once at end of experiment")
        self.slots.clear();
        out
    }
}
