//! Slotted pages.
//!
//! Both the EOS-like disk engine and the Dali-like main-memory engine store
//! objects in fixed-size slotted pages: a small header, a slot directory
//! growing downward from the header, and cell data growing upward from the
//! end of the page. A record's slot number never changes while it lives on
//! the page, which is what keeps [`crate::oid::Oid`]s stable.
//!
//! Layout (all little-endian):
//!
//! ```text
//! 0..8    lsn        u64   log sequence number of the last change
//! 8..10   slot_count u16   number of slot directory entries (incl. free)
//! 10..12  free_end   u16   offset where the cell area begins
//! 12..16  cluster    u32   cluster this page belongs to (pages are
//!                          cluster-exclusive, mirroring Ode's clusters)
//! 16..    slot directory: 4 bytes per slot (offset u16, len u16)
//! ...     free space
//! free_end..PAGE_SIZE  cell data
//! ```
//!
//! A slot entry with `offset == 0` is free (0 can never be a valid cell
//! offset because the header occupies it).
//!
//! Every live cell occupies at least [`MIN_CELL`] bytes of page space, even
//! when its slot entry records fewer: space accounting, placement and
//! compaction all count a cell's footprint, `max(len, MIN_CELL)`. That
//! keeps one promise the heap layer relies on: any live cell can be
//! rewritten as a 7-byte forward stub on its own page, however full the
//! page is.

use crate::oid::ClusterId;

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Bytes taken by the fixed page header.
pub const HEADER_SIZE: usize = 16;

/// Bytes per slot directory entry.
const SLOT_ENTRY: usize = 4;

/// The least page space a live cell occupies: the size of the heap layer's
/// forward stub (tag byte + 6-byte Oid), so a record that must move can
/// always leave its stub behind.
pub const MIN_CELL: usize = 7;

/// Page space taken by a live cell of `len` bytes.
fn footprint(len: usize) -> usize {
    len.max(MIN_CELL)
}

/// The largest record payload a single page can hold (header + one slot
/// entry subtracted). Larger records use overflow chains in the heap layer.
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER_SIZE - SLOT_ENTRY;

/// A fixed-size slotted page.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

/// Why an insert or update could not be performed on this page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOpError {
    /// Not enough contiguous + reclaimable free space.
    Full,
    /// The slot number does not exist or is free.
    BadSlot,
    /// `insert_at` was asked to fill a slot that is already occupied.
    SlotOccupied,
}

impl Page {
    /// A fresh page: zero slots, whole body free.
    pub fn new() -> Page {
        let mut p = Page {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        p.set_free_end(PAGE_SIZE as u16);
        p
    }

    /// Rehydrate a page from raw bytes (from disk or a checkpoint image).
    pub fn from_bytes(bytes: &[u8]) -> Page {
        assert_eq!(bytes.len(), PAGE_SIZE, "page image must be PAGE_SIZE");
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        Page { data }
    }

    /// Raw page image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    fn get_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.data[at], self.data[at + 1]])
    }

    fn set_u16(&mut self, at: usize, v: u16) {
        self.data[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Log sequence number of the last modification (used by recovery).
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.data[0..8].try_into().unwrap())
    }

    /// Set the page LSN.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.data[0..8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Number of slot directory entries, including freed ones.
    pub fn slot_count(&self) -> u16 {
        self.get_u16(8)
    }

    fn set_slot_count(&mut self, v: u16) {
        self.set_u16(8, v);
    }

    fn free_end(&self) -> u16 {
        self.get_u16(10)
    }

    fn set_free_end(&mut self, v: u16) {
        self.set_u16(10, v);
    }

    /// Cluster this page's records belong to.
    pub fn cluster(&self) -> ClusterId {
        u32::from_le_bytes(self.data[12..16].try_into().unwrap())
    }

    /// Assign the page to a cluster.
    pub fn set_cluster(&mut self, cluster: ClusterId) {
        self.data[12..16].copy_from_slice(&cluster.to_le_bytes());
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let at = HEADER_SIZE + SLOT_ENTRY * slot as usize;
        (self.get_u16(at), self.get_u16(at + 2))
    }

    fn set_slot_entry(&mut self, slot: u16, offset: u16, len: u16) {
        let at = HEADER_SIZE + SLOT_ENTRY * slot as usize;
        self.set_u16(at, offset);
        self.set_u16(at + 2, len);
    }

    fn dir_end(&self) -> usize {
        HEADER_SIZE + SLOT_ENTRY * self.slot_count() as usize
    }

    /// Contiguous free space between the slot directory and the cell area.
    pub fn contiguous_free(&self) -> usize {
        self.free_end() as usize - self.dir_end()
    }

    /// Total reclaimable free space: contiguous free space plus dead cell
    /// bytes that compaction would recover, counting each live cell at its
    /// footprint. Does not count free slot entries. Saturates at zero:
    /// a page written before footprints were counted may hold more small
    /// cells than footprints allow.
    pub fn usable_free(&self) -> usize {
        let live: usize = self
            .live_slots()
            .map(|(_, _, len)| footprint(len as usize))
            .sum();
        (PAGE_SIZE - self.dir_end()).saturating_sub(live)
    }

    /// Whether a record of `len` bytes can be inserted (possibly after
    /// compaction), accounting for a new slot entry if none is free.
    pub fn can_insert(&self, len: usize) -> bool {
        if len > MAX_RECORD {
            return false;
        }
        let slot_cost = if self.find_free_slot().is_some() {
            0
        } else {
            SLOT_ENTRY
        };
        self.usable_free() >= footprint(len) + slot_cost
    }

    fn find_free_slot(&self) -> Option<u16> {
        (0..self.slot_count()).find(|&s| self.slot_entry(s).0 == 0)
    }

    /// Iterator over `(slot, offset, len)` of occupied slots.
    fn live_slots(&self) -> impl Iterator<Item = (u16, u16, u16)> + '_ {
        (0..self.slot_count()).filter_map(move |s| {
            let (off, len) = self.slot_entry(s);
            (off != 0).then_some((s, off, len))
        })
    }

    /// Occupied slot numbers, for scans.
    pub fn occupied_slots(&self) -> Vec<u16> {
        self.live_slots().map(|(s, _, _)| s).collect()
    }

    /// Iterator over `(slot, cell bytes)` of occupied slots — the scan
    /// primitive shared by the 2PL and snapshot cluster scans.
    pub fn occupied_cells(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        self.live_slots()
            .map(move |(s, off, len)| (s, &self.data[off as usize..off as usize + len as usize]))
    }

    /// Read the record in `slot`.
    pub fn read(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot_entry(slot);
        if off == 0 {
            return None;
        }
        Some(&self.data[off as usize..off as usize + len as usize])
    }

    /// Move all live cells to the end of the page, eliminating dead space.
    /// Each cell is given its footprint — unless the page predates
    /// footprints and they would not all fit, in which case cells are
    /// packed at their exact lengths as that page always was.
    fn compact(&mut self) {
        let mut live: Vec<(u16, Vec<u8>)> = self
            .live_slots()
            .map(|(s, off, len)| {
                (
                    s,
                    self.data[off as usize..off as usize + len as usize].to_vec(),
                )
            })
            .collect();
        let padded: usize = live.iter().map(|(_, b)| footprint(b.len())).sum();
        let pad = padded <= PAGE_SIZE - self.dir_end();
        // Pack from the end of the page.
        let mut cursor = PAGE_SIZE;
        // Sort for determinism (order does not matter for correctness).
        live.sort_by_key(|(s, _)| *s);
        for (slot, bytes) in &live {
            cursor -= if pad {
                footprint(bytes.len())
            } else {
                bytes.len()
            };
            self.data[cursor..cursor + bytes.len()].copy_from_slice(bytes);
            self.set_slot_entry(*slot, cursor as u16, bytes.len() as u16);
        }
        self.set_free_end(cursor as u16);
    }

    /// Reserve space for a cell of `len` bytes (its footprint) at the
    /// low end of the cell area; returns the cell's offset.
    fn place_cell(&mut self, len: usize) -> Result<u16, PageOpError> {
        let need = footprint(len);
        if self.contiguous_free() < need {
            self.compact();
        }
        if self.contiguous_free() < need {
            return Err(PageOpError::Full);
        }
        let off = self.free_end() as usize - need;
        self.set_free_end(off as u16);
        Ok(off as u16)
    }

    /// Insert a record; returns its slot.
    pub fn insert(&mut self, data: &[u8]) -> Result<u16, PageOpError> {
        if !self.can_insert(data.len()) {
            return Err(PageOpError::Full);
        }
        let slot = match self.find_free_slot() {
            Some(s) => s,
            None => {
                // Growing the directory consumes contiguous space at its
                // end; compact first if fragmentation left fewer than
                // SLOT_ENTRY contiguous bytes, or the new entry would
                // overlap the lowest cell.
                if self.contiguous_free() < SLOT_ENTRY {
                    self.compact();
                }
                debug_assert!(self.contiguous_free() >= SLOT_ENTRY);
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                // Newly added directory entry must start out free.
                self.set_slot_entry(s, 0, 0);
                s
            }
        };
        let off = self.place_cell(data.len())?;
        self.data[off as usize..off as usize + data.len()].copy_from_slice(data);
        self.set_slot_entry(slot, off, data.len() as u16);
        Ok(slot)
    }

    /// Insert a record into a specific (currently free) slot. Used by
    /// recovery replay and by undo of deletes so that Oids are reproduced
    /// exactly.
    pub fn insert_at(&mut self, slot: u16, data: &[u8]) -> Result<(), PageOpError> {
        if data.len() > MAX_RECORD {
            return Err(PageOpError::Full);
        }
        if slot < self.slot_count() && self.slot_entry(slot).0 != 0 {
            return Err(PageOpError::SlotOccupied);
        }
        // Grow the directory if needed; intervening new slots start free.
        let needed_dir = HEADER_SIZE + SLOT_ENTRY * (slot as usize + 1);
        if slot >= self.slot_count() {
            let extra_dir = needed_dir - self.dir_end();
            if self.usable_free() < footprint(data.len()) + extra_dir {
                return Err(PageOpError::Full);
            }
            if self.contiguous_free() < extra_dir {
                self.compact();
            }
            if self.contiguous_free() < extra_dir {
                return Err(PageOpError::Full);
            }
            let old = self.slot_count();
            self.set_slot_count(slot + 1);
            for s in old..=slot {
                self.set_slot_entry(s, 0, 0);
            }
        } else if self.usable_free() < footprint(data.len()) {
            return Err(PageOpError::Full);
        }
        let off = self.place_cell(data.len())?;
        self.data[off as usize..off as usize + data.len()].copy_from_slice(data);
        self.set_slot_entry(slot, off, data.len() as u16);
        Ok(())
    }

    /// Replace the record in `slot` with `data`, keeping the slot number.
    pub fn update(&mut self, slot: u16, data: &[u8]) -> Result<(), PageOpError> {
        if slot >= self.slot_count() || self.slot_entry(slot).0 == 0 {
            return Err(PageOpError::BadSlot);
        }
        let (off, len) = self.slot_entry(slot);
        if data.len() <= len as usize {
            // Shrink in place; the tail bytes become dead space reclaimed by
            // the next compaction. (Growing into the footprint's padding is
            // not attempted: a page written before footprints were counted
            // may have a neighbour there.)
            let off = off as usize;
            self.data[off..off + data.len()].copy_from_slice(data);
            self.set_slot_entry(slot, off as u16, data.len() as u16);
            return Ok(());
        }
        // Grow: logically free the old cell, then place a new one. Freeing
        // first lets compaction reclaim the old copy.
        self.set_slot_entry(slot, 0, 0);
        if self.usable_free() < footprint(data.len()) {
            // Roll back the slot entry so the page is unchanged on failure.
            self.set_slot_entry(slot, off, len);
            return Err(PageOpError::Full);
        }
        let new_off = self.place_cell(data.len())?;
        self.data[new_off as usize..new_off as usize + data.len()].copy_from_slice(data);
        self.set_slot_entry(slot, new_off, data.len() as u16);
        Ok(())
    }

    /// Delete the record in `slot`. The slot entry becomes reusable.
    pub fn delete(&mut self, slot: u16) -> Result<(), PageOpError> {
        if slot >= self.slot_count() || self.slot_entry(slot).0 == 0 {
            return Err(PageOpError::BadSlot);
        }
        self.set_slot_entry(slot, 0, 0);
        // Shrink the directory if a suffix of slots is free, so pages that
        // empty out fully recover their space.
        let mut count = self.slot_count();
        while count > 0 && self.slot_entry(count - 1).0 == 0 {
            count -= 1;
        }
        self.set_slot_count(count);
        Ok(())
    }

    /// True when no slot holds a record.
    pub fn is_empty(&self) -> bool {
        self.live_slots().next().is_none()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("lsn", &self.lsn())
            .field("slots", &self.slot_count())
            .field("free", &self.usable_free())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_read() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_ne!(a, b);
        assert_eq!(p.read(a).unwrap(), b"hello");
        assert_eq!(p.read(b).unwrap(), b"world!");
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = Page::new();
        let a = p.insert(b"one").unwrap();
        let _b = p.insert(b"two").unwrap();
        p.delete(a).unwrap();
        assert!(p.read(a).is_none());
        let c = p.insert(b"three").unwrap();
        assert_eq!(c, a, "freed slot should be reused");
    }

    #[test]
    fn trailing_delete_shrinks_directory() {
        let mut p = Page::new();
        let a = p.insert(b"one").unwrap();
        let b = p.insert(b"two").unwrap();
        p.delete(b).unwrap();
        assert_eq!(p.slot_count(), 1);
        p.delete(a).unwrap();
        assert_eq!(p.slot_count(), 0);
        assert!(p.is_empty());
        assert_eq!(p.usable_free(), PAGE_SIZE - HEADER_SIZE);
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = Page::new();
        let a = p.insert(b"abcdef").unwrap();
        p.update(a, b"xy").unwrap();
        assert_eq!(p.read(a).unwrap(), b"xy");
        p.update(a, b"a longer record than before").unwrap();
        assert_eq!(p.read(a).unwrap(), b"a longer record than before");
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut p = Page::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_ok() {
            n += 1;
        }
        // 4096 - 12 header; each record costs 104 bytes => 39 fit.
        assert_eq!(n, (PAGE_SIZE - HEADER_SIZE) / (100 + SLOT_ENTRY));
        assert!(!p.can_insert(100));
        assert!(p.can_insert(10));
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut p = Page::new();
        let mut slots = Vec::new();
        let rec = [1u8; 200];
        while let Ok(s) = p.insert(&rec) {
            slots.push(s);
        }
        // Free every other record; contiguous space stays small but usable
        // space is large, so a big insert must trigger compaction.
        for s in slots.iter().step_by(2) {
            p.delete(*s).unwrap();
        }
        let big = [2u8; 1000];
        let s = p.insert(&big).unwrap();
        assert_eq!(p.read(s).unwrap(), &big[..]);
    }

    #[test]
    fn roundtrip_via_bytes() {
        let mut p = Page::new();
        p.set_lsn(77);
        let a = p.insert(b"persist me").unwrap();
        let q = Page::from_bytes(p.as_bytes());
        assert_eq!(q.lsn(), 77);
        assert_eq!(q.read(a).unwrap(), b"persist me");
    }

    #[test]
    fn insert_at_reproduces_slots() {
        let mut p = Page::new();
        p.insert_at(3, b"late").unwrap();
        assert_eq!(p.slot_count(), 4);
        assert_eq!(p.read(3).unwrap(), b"late");
        assert!(p.read(0).is_none());
        // Occupied slot rejects insert_at.
        assert_eq!(p.insert_at(3, b"x"), Err(PageOpError::SlotOccupied));
        // Fresh inserts fill the earlier free slots.
        let s = p.insert(b"early").unwrap();
        assert_eq!(s, 0);
    }

    #[test]
    fn max_record_fits_exactly() {
        let mut p = Page::new();
        let rec = vec![9u8; MAX_RECORD];
        let s = p.insert(&rec).unwrap();
        assert_eq!(p.read(s).unwrap().len(), MAX_RECORD);
        assert!(!p.can_insert(1) || p.can_insert(0));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = Page::new();
        let rec = vec![9u8; MAX_RECORD + 1];
        assert_eq!(p.insert(&rec), Err(PageOpError::Full));
    }

    #[test]
    fn directory_growth_compacts_when_fragmented() {
        // Regression: with no free slot entries and zero contiguous bytes
        // (only dead-space fragmentation), growing the directory used to
        // overlap the lowest cell and underflow contiguous_free.
        let mut p = Page::new();
        // Fill the page exactly: 40 records of 98 bytes (40 × (98+4) =
        // 4080 = PAGE_SIZE - HEADER_SIZE).
        let rec = [7u8; 98];
        for _ in 0..40 {
            p.insert(&rec).unwrap();
        }
        assert_eq!(p.contiguous_free(), 0);
        assert!(p.insert(&[0u8; 1]).is_err());
        // Shrink one record in place: usable space appears as a dead
        // fragment, contiguous stays 0, and no slot entry is free.
        p.update(3, &[1u8; 50]).unwrap();
        assert_eq!(p.contiguous_free(), 0);
        assert!(p.usable_free() >= 48);
        // This insert must grow the directory; it used to panic/corrupt.
        let snapshot: Vec<_> = p
            .occupied_slots()
            .iter()
            .map(|&s| (s, p.read(s).unwrap().to_vec()))
            .collect();
        let slot = p.insert(&[2u8; 20]).unwrap();
        assert_eq!(p.read(slot).unwrap(), &[2u8; 20]);
        for (s, data) in snapshot {
            assert_eq!(p.read(s).unwrap(), &data[..], "slot {s} corrupted");
        }
    }

    #[test]
    fn forward_stub_fits_in_a_full_page_of_small_cells() {
        // Regression: an empty hash bucket is a 5-byte cell. When a page
        // of them is full to the last byte and one must move, the 7-byte
        // forward stub left in its slot has to fit — it did not while a
        // 5-byte cell counted as 5 bytes of page space.
        let mut p = Page::new();
        let mut cells = Vec::new();
        while p.usable_free() >= 40 {
            cells.push(p.insert(&[5u8; 5]).unwrap());
        }
        let rest = p.usable_free() - SLOT_ENTRY;
        let last = p.insert(&vec![6u8; rest]).unwrap();
        assert_eq!(p.usable_free(), 0, "page full to the last byte");
        let before: Vec<_> = p
            .occupied_slots()
            .iter()
            .map(|&s| (s, p.read(s).unwrap().to_vec()))
            .collect();

        let stub = [1u8, 2, 3, 4, 5, 6, 7];
        p.update(cells[17], &stub).unwrap();
        assert_eq!(p.read(cells[17]).unwrap(), &stub);
        for (s, data) in before.into_iter().filter(|(s, _)| *s != cells[17]) {
            assert_eq!(p.read(s).unwrap(), &data[..], "slot {s} corrupted");
        }
        assert_eq!(p.read(last).unwrap().len(), rest);
    }

    #[test]
    fn pages_packed_before_footprints_compact_safely() {
        // A page image from before footprints were counted: 5-byte cells
        // packed back to back, more than footprints would allow.
        let mut p = Page::new();
        let n = (PAGE_SIZE - HEADER_SIZE) / (5 + SLOT_ENTRY);
        for i in 0..n {
            let off = PAGE_SIZE - (i + 1) * 5;
            p.data[off..off + 5].copy_from_slice(&[i as u8; 5]);
            p.set_slot_count(i as u16 + 1);
            p.set_slot_entry(i as u16, off as u16, 5);
        }
        p.set_free_end((PAGE_SIZE - n * 5) as u16);
        assert_eq!(p.usable_free(), 0, "saturates instead of underflowing");
        assert!(!p.can_insert(1));
        p.delete(0).unwrap();
        p.compact();
        for i in 1..n {
            assert_eq!(p.read(i as u16).unwrap(), &[i as u8; 5], "slot {i}");
        }
        // Shrinking in place still works on such a page.
        p.update(3, &[9u8; 2]).unwrap();
        assert_eq!(p.read(3).unwrap(), &[9u8; 2]);
        assert_eq!(p.read(4).unwrap(), &[4u8; 5]);
    }

    #[test]
    fn update_failure_leaves_page_unchanged() {
        let mut p = Page::new();
        let filler = vec![1u8; 2000];
        let a = p.insert(&filler).unwrap();
        let b = p.insert(&filler).unwrap();
        let too_big = vec![2u8; 2500];
        assert_eq!(p.update(b, &too_big), Err(PageOpError::Full));
        assert_eq!(p.read(a).unwrap(), &filler[..]);
        assert_eq!(p.read(b).unwrap(), &filler[..]);
    }
}
