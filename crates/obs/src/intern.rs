//! The recorder's selector interner: one shared `Arc<str>` per name.
//!
//! Ring events carry method and meta-level names. Copying each into a
//! fresh `String` costs an allocation per event and another free when the
//! ring evicts it; at fleet scale that is most of what Ring mode adds to
//! an invocation. The interner hands out clones of one `Arc<str>` per
//! distinct name instead, so recording a name is a hash lookup and a
//! reference-count bump.
//!
//! The table is bounded: once it holds [`NAME_INTERN_CAP`] names, an
//! unseen name gets a fresh, uncached `Arc` — the event is still exact,
//! it just does not share — so a stream of distinct selectors cannot grow
//! the recorder without limit.

use std::collections::HashSet;
use std::sync::Arc;

/// Most distinct names the interner retains; later unseen names are
/// allocated per event.
pub(crate) const NAME_INTERN_CAP: usize = 4096;

/// Bounded `&str` → `Arc<str>` table (see module docs).
#[derive(Debug, Default)]
pub(crate) struct NameInterner {
    names: HashSet<Arc<str>>,
}

impl NameInterner {
    /// The shared `Arc` for `name`, inserting it while below the cap.
    pub(crate) fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(shared) = self.names.get(name) {
            return Arc::clone(shared);
        }
        let fresh: Arc<str> = Arc::from(name);
        if self.names.len() < NAME_INTERN_CAP {
            self.names.insert(Arc::clone(&fresh));
        }
        fresh
    }

    /// Distinct names retained.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// Forgets every name (events already recorded keep theirs).
    pub(crate) fn clear(&mut self) {
        self.names.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_interner_stops_growing_at_its_cap() {
        let mut names = NameInterner::default();
        for i in 0..NAME_INTERN_CAP + 100 {
            let name = format!("m{i}");
            assert_eq!(&*names.intern(&name), name.as_str());
        }
        assert_eq!(names.len(), NAME_INTERN_CAP);
        // Past the cap a new name is exact but unshared...
        let a = names.intern("late");
        let b = names.intern("late");
        assert_eq!((&*a, &*b), ("late", "late"));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(names.len(), NAME_INTERN_CAP);
        // ...while names admitted before the cap still share.
        assert!(Arc::ptr_eq(&names.intern("m0"), &names.intern("m0")));
    }
}
