//! The MWCAS algorithm: conditional installation (RDCSS), decision,
//! unrolling, and reads that help.
//!
//! This is Harris, Fraser & Pratt's construction (DISC'02) specialized to
//! embedded RDCSS descriptors and arena-stable memory:
//!
//! 1. **Phase 1 (install).** For each entry, in ascending address order,
//!    RDCSS the word from its expected value to the operation descriptor —
//!    but only while the operation's status is still `UNDECIDED`. A foreign
//!    descriptor in the way is helped to completion first.
//! 2. **Decide.** CAS the status from `UNDECIDED` to `SUCCEEDED` (all
//!    entries installed) or `FAILED` (some expected value did not match).
//!    The first decision wins; helpers merely echo it.
//! 3. **Phase 2 (unroll).** Replace the descriptor in every word with the
//!    new value on success or the old value on failure.
//!
//! Every thread that encounters a descriptor mid-flight executes the same
//! steps, so the operation completes as long as *any* thread is scheduled:
//! all operations (including [`read`]) are lock-free. (The paper's DCAS
//! cites a wait-free `DCAS_READ`; our read is lock-free — it retries only
//! after helping an installed operation to completion, so it can be
//! delayed only by new operations that keep landing on the same word. The
//! distinction is immaterial for the sketch's progress arguments, which
//! assume a fair scheduler.)

use crate::arena::Arena;
use crate::descriptor::{
    mwcas_ptr, mwcas_raw, rdcss_parts, rdcss_raw, MwcasDescriptor, FAILED, MAX_WORDS, SUCCEEDED,
    UNDECIDED,
};
use crate::word::{decode, encode, tag, MwcasWord, MAX_LOGICAL, TAG_MWCAS, TAG_RDCSS, TAG_VALUE};

/// One target of a multi-word CAS: set `word` from `old` to `new`.
#[derive(Clone, Copy, Debug)]
pub struct CasPair<'a> {
    /// The shared cell to update.
    pub word: &'a MwcasWord,
    /// Expected logical value.
    pub old: u64,
    /// Replacement logical value.
    pub new: u64,
}

/// Atomically set every `pairs[i].word` from `old` to `new`; succeed iff
/// *all* expected values matched at one linearization point.
///
/// `arena` must be the descriptor arena owned by the data structure the
/// words belong to: the arena (and the words) must outlive every thread
/// that may still help this operation — in practice, both live in the same
/// shared structure and drop together.
///
/// # Panics
///
/// If `pairs` is empty, exceeds [`MAX_WORDS`], contains duplicate words,
/// values above [`MAX_LOGICAL`], or an entry with `old == new` (such
/// entries would make late helper re-installation observable; model a
/// no-op word by simply leaving it out).
pub fn mwcas(arena: &Arena, pairs: &[CasPair<'_>]) -> bool {
    assert!(!pairs.is_empty(), "mwcas with no targets");
    assert!(pairs.len() <= MAX_WORDS, "mwcas with more than {MAX_WORDS} targets");

    let mut entries: [(*const MwcasWord, u64, u64); MAX_WORDS] =
        [(std::ptr::null(), 0, 0); MAX_WORDS];
    for (i, p) in pairs.iter().enumerate() {
        assert!(p.old <= MAX_LOGICAL && p.new <= MAX_LOGICAL, "logical value exceeds 62 bits");
        assert_ne!(p.old, p.new, "mwcas entry with old == new");
        entries[i] = (p.word as *const MwcasWord, encode(p.old), encode(p.new));
    }
    let entries = &mut entries[..pairs.len()];
    // Canonical install order prevents two operations from installing into
    // each other's words in opposite orders and livelocking.
    entries.sort_unstable_by_key(|(w, _, _)| *w as usize);
    for pair in entries.windows(2) {
        assert_ne!(pair[0].0, pair[1].0, "mwcas with duplicate target words");
    }

    let d = arena.alloc(entries);
    // SAFETY: arena descriptors live until the arena drops.
    help(unsafe { &*d }, d)
}

/// Read the logical value of `word`, helping any in-flight operation to
/// completion first.
///
/// `load` performs the raw load; callers with reclamation obligations pass
/// an era-validated load (e.g. `|w| guard.protect(|| w.load_raw())`), so
/// that a returned plain value that is a block address is protected by the
/// guard. Descriptor dereferences inside this function need no protection:
/// descriptors are arena-stable.
pub fn read(word: &MwcasWord, mut load: impl FnMut(&MwcasWord) -> u64) -> u64 {
    loop {
        let raw = load(word);
        match tag(raw) {
            TAG_VALUE => return decode(raw),
            TAG_RDCSS => {
                let (d, i) = rdcss_parts(raw);
                // SAFETY: arena-stable descriptor.
                complete_rdcss(unsafe { &*d }, d, i);
            }
            TAG_MWCAS => {
                let d = mwcas_ptr(raw);
                // SAFETY: arena-stable descriptor.
                help(unsafe { &*d }, d);
            }
            _ => unreachable!("invalid word tag"),
        }
    }
}

/// [`read`] with a direct sequentially-consistent load (no reclamation
/// protection — for words whose plain values are not pointers, like the
/// tritmap, or for single-threaded use).
pub fn read_plain(word: &MwcasWord) -> u64 {
    read(word, |w| w.load_raw())
}

/// Execute (or help execute) operation `d` to completion.
fn help(d: &MwcasDescriptor, d_ptr: *const MwcasDescriptor) -> bool {
    let me = mwcas_raw(d_ptr);

    // Phase 1: install `me` into every target, in canonical order.
    let mut proposal = SUCCEEDED;
    'install: for (i, e) in d.entries().iter().enumerate() {
        loop {
            // A decided operation needs no further installation; drop
            // straight to the unroll so stale helpers retire quickly.
            if d.status() != UNDECIDED {
                break 'install;
            }
            let witnessed = rdcss(d, d_ptr, i);
            if witnessed == me {
                break; // another helper already installed this entry
            }
            match tag(witnessed) {
                TAG_MWCAS => {
                    // A foreign operation owns the word: help it out of the
                    // way, then retry this entry.
                    let other = mwcas_ptr(witnessed);
                    // SAFETY: arena-stable descriptor.
                    help(unsafe { &*other }, other);
                }
                _ => {
                    if witnessed == e.old_raw {
                        break; // installed by this call
                    }
                    // The word holds a different plain value: the operation
                    // cannot succeed.
                    proposal = FAILED;
                    break 'install;
                }
            }
        }
    }

    let success = d.decide(proposal) == SUCCEEDED;

    // Phase 2: unroll — swing every word from the descriptor to its final
    // value. CAS failures mean someone else already unrolled that word.
    for e in d.entries() {
        let final_raw = if success { e.new_raw } else { e.old_raw };
        let _ = e.target().cas_raw(me, final_raw);
    }
    success
}

/// Restricted double-compare single-swap for entry `i` of `d`: install the
/// operation descriptor into the entry's word iff the word holds the
/// expected old value *and* `d.status == UNDECIDED`.
///
/// Returns the raw value that decided the attempt:
/// * `e.old_raw` — the conditional install ran (the word now holds `me`,
///   or was rolled back to `old` because the status was already decided);
/// * the operation's own descriptor (`me`) — already installed;
/// * any other raw plain value or foreign MWCAS descriptor — not installed.
fn rdcss(d: &MwcasDescriptor, d_ptr: *const MwcasDescriptor, i: usize) -> u64 {
    let e = &d.entries()[i];
    let rd = rdcss_raw(d_ptr, i);
    loop {
        match e.target().cas_raw(e.old_raw, rd) {
            Ok(_) => {
                complete_rdcss(d, d_ptr, i);
                return e.old_raw;
            }
            Err(cur) if tag(cur) == TAG_RDCSS => {
                // Some RDCSS (possibly ours, installed by a helper) is in
                // the word: complete it and retry.
                let (od, oi) = rdcss_parts(cur);
                // SAFETY: arena-stable descriptor.
                complete_rdcss(unsafe { &*od }, od, oi);
            }
            Err(cur) => return cur,
        }
    }
}

/// Second half of RDCSS: promote the sub-descriptor to the full operation
/// descriptor if the status is still undecided, otherwise roll back.
fn complete_rdcss(d: &MwcasDescriptor, d_ptr: *const MwcasDescriptor, i: usize) {
    let e = &d.entries()[i];
    let rd = rdcss_raw(d_ptr, i);
    let replacement = if d.status() == UNDECIDED { mwcas_raw(d_ptr) } else { e.old_raw };
    let _ = e.target().cas_raw(rd, replacement);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_word_cas_success() {
        let arena = Arena::new();
        let w = MwcasWord::new(10);
        assert!(mwcas(&arena, &[CasPair { word: &w, old: 10, new: 11 }]));
        assert_eq!(read_plain(&w), 11);
    }

    #[test]
    fn single_word_cas_failure_leaves_value() {
        let arena = Arena::new();
        let w = MwcasWord::new(10);
        assert!(!mwcas(&arena, &[CasPair { word: &w, old: 9, new: 11 }]));
        assert_eq!(read_plain(&w), 10);
    }

    #[test]
    fn two_word_success_updates_both() {
        let arena = Arena::new();
        let a = MwcasWord::new(1);
        let b = MwcasWord::new(2);
        assert!(mwcas(
            &arena,
            &[CasPair { word: &a, old: 1, new: 100 }, CasPair { word: &b, old: 2, new: 200 }]
        ));
        assert_eq!(read_plain(&a), 100);
        assert_eq!(read_plain(&b), 200);
    }

    #[test]
    fn two_word_failure_rolls_back_installed_entries() {
        let arena = Arena::new();
        let a = MwcasWord::new(1);
        let b = MwcasWord::new(2);
        // Second expected value is wrong: the whole operation must fail and
        // `a` must be restored even though it was installable.
        assert!(!mwcas(
            &arena,
            &[CasPair { word: &a, old: 1, new: 100 }, CasPair { word: &b, old: 99, new: 200 }]
        ));
        assert_eq!(read_plain(&a), 1);
        assert_eq!(read_plain(&b), 2);
    }

    #[test]
    fn four_word_cas() {
        let arena = Arena::new();
        let words: Vec<MwcasWord> = (0..4).map(MwcasWord::new).collect();
        let pairs: Vec<CasPair> = words
            .iter()
            .enumerate()
            .map(|(i, w)| CasPair { word: w, old: i as u64, new: i as u64 + 10 })
            .collect();
        assert!(mwcas(&arena, &pairs));
        for (i, w) in words.iter().enumerate() {
            assert_eq!(read_plain(w), i as u64 + 10);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_words_rejected() {
        let arena = Arena::new();
        let w = MwcasWord::new(0);
        let _ = mwcas(
            &arena,
            &[CasPair { word: &w, old: 0, new: 1 }, CasPair { word: &w, old: 0, new: 2 }],
        );
    }

    #[test]
    #[should_panic(expected = "old == new")]
    fn noop_entry_rejected() {
        let arena = Arena::new();
        let w = MwcasWord::new(0);
        let _ = mwcas(&arena, &[CasPair { word: &w, old: 0, new: 0 }]);
    }

    /// Install a raw RDCSS sub-descriptor by hand and check that a read
    /// resolves the whole operation to completion.
    #[test]
    fn read_resolves_in_flight_rdcss() {
        let arena = Arena::new();
        let a = MwcasWord::new(5);
        let b = MwcasWord::new(6);
        let d = arena.alloc(&[
            (&a as *const _, encode(5), encode(50)),
            (&b as *const _, encode(6), encode(60)),
        ]);
        // Simulate a preempted owner: the RDCSS for entry 0 is in `a`, the
        // status is still UNDECIDED, entry 1 untouched.
        a.cas_raw(encode(5), rdcss_raw(d, 0)).unwrap();

        // A reader must finish the operation: promote the RDCSS, install
        // entry 1, decide SUCCEEDED, unroll.
        assert_eq!(read_plain(&a), 50);
        assert_eq!(read_plain(&b), 60);
        assert_eq!(unsafe { &*d }.status(), SUCCEEDED);
    }

    /// Same, but the operation is doomed (entry 1 mismatches): the reader
    /// must fail it and roll entry 0 back.
    #[test]
    fn read_resolves_doomed_operation_by_rollback() {
        let arena = Arena::new();
        let a = MwcasWord::new(5);
        let b = MwcasWord::new(7); // does not match the descriptor's 6
        let d = arena.alloc(&[
            (&a as *const _, encode(5), encode(50)),
            (&b as *const _, encode(6), encode(60)),
        ]);
        a.cas_raw(encode(5), rdcss_raw(d, 0)).unwrap();

        assert_eq!(read_plain(&a), 5, "entry 0 must be rolled back");
        assert_eq!(read_plain(&b), 7);
        assert_eq!(unsafe { &*d }.status(), FAILED);
    }

    /// A descriptor whose status is already decided must never re-install:
    /// the embedded RDCSS rolls back (the "stale helper" scenario).
    #[test]
    fn stale_rdcss_install_rolls_back_after_decision() {
        let arena = Arena::new();
        let a = MwcasWord::new(5);
        let b = MwcasWord::new(6);
        let d = arena.alloc(&[
            (&a as *const _, encode(5), encode(50)),
            (&b as *const _, encode(6), encode(60)),
        ]);
        // The operation completes normally...
        assert!(help_for_test(d));
        assert_eq!(read_plain(&a), 50);
        // ...then the value happens to recur (ABA), and a stale helper
        // re-installs the embedded RDCSS.
        a.store_plain(5);
        a.cas_raw(encode(5), rdcss_raw(d, 0)).unwrap();
        // Resolution must restore the old value, not the descriptor.
        assert_eq!(read_plain(&a), 5);
    }

    fn help_for_test(d: *const MwcasDescriptor) -> bool {
        help(unsafe { &*d }, d)
    }

    #[test]
    fn mwcas_on_already_decided_descriptor_is_idempotent() {
        let arena = Arena::new();
        let a = MwcasWord::new(1);
        let d = arena.alloc(&[(&a as *const _, encode(1), encode(2))]);
        assert!(help_for_test(d));
        assert!(help_for_test(d), "helping a completed op echoes its outcome");
        assert_eq!(read_plain(&a), 2);
    }
}
