//! The exact lookup memo shared by every memoizing TLB organization
//! (DESIGN.md §6, "Way arrays").

/// Per-slot memo (a slot is a set, or a TB slot) of the way the last tag
/// walk hit, beside an organization-defined hint `H`. The organization
/// validates the way with its own closure and runs one hit body whether
/// the memo or the walk found it, so memo on and memo off differ only in
/// [`Memo::served`].
#[derive(Clone, Debug)]
pub struct Memo<H> {
    /// `(way, hint)` armed per slot.
    slots: Vec<Option<(u32, H)>>,
    /// Lookups the memo served (host-side observability only).
    served: u64,
    /// Serving enabled; the tests' memo-off twin is the reference.
    on: bool,
}

impl<H: Copy> Memo<H> {
    /// An enabled memo with `slots` empty slots.
    pub fn new(slots: usize) -> Self {
        Memo {
            slots: vec![None; slots],
            served: 0,
            on: true,
        }
    }

    /// Enables or disables serving (a disabled memo still arms).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether serving is enabled. An organization gates its other exact
    /// shortcuts on the same switch, so the memo-off twin is their
    /// reference too.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Lookups served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The way armed in `slot` and its hint, if serving is enabled and
    /// `valid(way, &hint)` accepts them; counts the lookup as served.
    /// `None` means the caller walks its tags.
    #[inline]
    pub fn serve(
        &mut self,
        slot: usize,
        valid: impl FnOnce(usize, &H) -> bool,
    ) -> Option<(usize, H)> {
        let (way, hint) = self.slots[slot].filter(|_| self.on)?;
        if !valid(way as usize, &hint) {
            return None;
        }
        self.served += 1;
        Some((way as usize, hint))
    }

    /// Remembers that a walk in `slot` hit `way`.
    #[inline]
    pub fn arm(&mut self, slot: usize, way: usize, hint: H) {
        self.slots[slot] = Some((way as u32, hint));
    }

    /// Forgets every hint, leaving `slots` empty slots.
    pub fn reset(&mut self, slots: usize) {
        self.slots = vec![None; slots];
    }

    /// Every armed `(slot, way, hint)`, in slot order.
    pub fn armed(&self) -> impl Iterator<Item = (usize, usize, &H)> {
        let armed = self.slots.iter().enumerate();
        armed.filter_map(|(slot, a)| a.as_ref().map(|(way, hint)| (slot, *way as usize, hint)))
    }

    /// Checks that the memo has `slots` slots and that every armed way
    /// lies in its slot's way range, as `in_slot(slot, way)` defines it;
    /// the error describes the first violation.
    pub fn check(
        &self,
        slots: usize,
        in_slot: impl Fn(usize, usize) -> bool,
    ) -> Result<(), String> {
        if self.slots.len() != slots {
            return Err(format!(
                "memo has {} slots, expected {slots}",
                self.slots.len()
            ));
        }
        match self.armed().find(|&(slot, way, _)| !in_slot(slot, way)) {
            Some((slot, way, _)) => {
                Err(format!("slot {slot}: memo way {way} lies outside the slot"))
            }
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_memo_arms_but_never_serves() {
        let mut m: Memo<()> = Memo::new(1);
        m.set_enabled(false);
        m.arm(0, 3, ());
        assert_eq!(m.serve(0, |_, ()| true), None);
        assert_eq!(m.armed().count(), 1);
        m.set_enabled(true);
        assert_eq!(m.serve(0, |_, ()| true), Some((3, ())));
        assert_eq!(m.served(), 1);
    }

    #[test]
    fn hint_travels_with_the_way_and_reset_forgets_it() {
        let mut m: Memo<u64> = Memo::new(2);
        m.arm(1, 5, 42);
        assert_eq!(m.serve(1, |w, &h| w == 5 && h == 42), Some((5, 42)));
        assert_eq!(m.serve(0, |_, _| true), None);
        m.reset(2);
        assert_eq!(m.serve(1, |_, _| true), None);
        assert_eq!(m.served(), 1);
    }

    #[test]
    fn check_reports_slot_count_and_range() {
        let mut m: Memo<()> = Memo::new(2);
        let in_set = |slot: usize, way: usize| way / 4 == slot;
        assert!(m.check(2, in_set).is_ok());
        assert!(m.check(3, in_set).unwrap_err().contains("2 slots"));
        m.arm(1, 5, ());
        assert!(m.check(2, in_set).is_ok());
        m.arm(0, 5, ());
        let e = m.check(2, in_set).unwrap_err();
        assert!(e.contains("slot 0") && e.contains("way 5"), "{e}");
        m.reset(3);
        assert!(m.check(3, in_set).is_ok());
        assert_eq!(m.armed().count(), 0);
    }
}
