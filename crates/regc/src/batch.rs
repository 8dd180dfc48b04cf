//! Batched sync-time updates (one message per destination server).
//!
//! RegC's latency argument is that consistency operations piggyback on
//! synchronization operations — so a release or barrier with N dirty pages
//! must not pay N per-message fabric latencies. An [`UpdateBatch`]
//! coalesces every per-page diff and fine-grain update bound for the *same*
//! memory server into a single one-way message: message count per sync
//! operation drops from O(dirty pages) to O(servers).
//!
//! Wire accounting is conservative by construction:
//! [`UpdateBatch::wire_bytes`] is one batch header plus the sum of the
//! parts' individual wire sizes, and each part's wire size equals what the
//! same update would have cost as a standalone message. Diff-byte
//! conservation (thread-side flushed bytes == server-side applied bytes)
//! therefore holds part by part, which is what keeps the trace invariant
//! checker exact under batching.
//!
//! A batch is built once and then only read — by the fabric envelope, by a
//! write-through replica copy, by the server — so its parts sit behind an `Arc`: cloning a batch is a
//! reference count, whatever its diffs weigh.

use std::sync::Arc;

use crate::diff::Diff;

/// One update travelling inside an [`UpdateBatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdatePart {
    /// An ordinary-region twin diff for one page (multiple-writer protocol).
    Diff {
        /// Global page number.
        page: u64,
        /// The modified runs.
        diff: Diff,
    },
    /// A fine-grain consistency-region update for one page.
    Fine {
        /// Global page number.
        page: u64,
        /// Byte offset within the page.
        offset: u32,
        /// The new bytes.
        bytes: Vec<u8>,
    },
}

impl UpdatePart {
    /// The page this part modifies.
    pub fn page(&self) -> u64 {
        match self {
            UpdatePart::Diff { page, .. } | UpdatePart::Fine { page, .. } => *page,
        }
    }

    /// Payload bytes (what the protocol moves, excluding headers).
    pub fn payload_bytes(&self) -> usize {
        match self {
            UpdatePart::Diff { diff, .. } => diff.payload_bytes(),
            UpdatePart::Fine { bytes, .. } => bytes.len(),
        }
    }

    /// Wire size of this part: a diff's 16-byte page header plus the diff,
    /// or what the same update costs as a standalone `ApplyFine` message, so
    /// batching never hides bytes from the cost model.
    pub fn wire_bytes(&self) -> usize {
        match self {
            UpdatePart::Diff { diff, .. } => 16 + diff.wire_bytes(),
            UpdatePart::Fine { bytes, .. } => 24 + bytes.len(),
        }
    }
}

/// All updates one flush sends to one memory server, as a single one-way
/// message.
///
/// A batch is also the unit of idempotency: it travels under one request
/// token, so the server's replay cache absorbs a duplicated batch without
/// re-applying *any* of its parts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    /// Shared by every clone; [`UpdateBatch::push`] un-shares first.
    parts: Arc<Vec<UpdatePart>>,
}

impl UpdateBatch {
    /// Fixed per-batch header (message framing + part count), in bytes.
    pub const HEADER_BYTES: usize = 16;

    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Append one part (parts are applied in push order). Free while the
    /// batch has never been cloned — the building phase; on a batch that
    /// shares its parts it copies them first, so clones never change.
    pub fn push(&mut self, part: UpdatePart) {
        Arc::make_mut(&mut self.parts).push(part);
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when the batch carries nothing.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Iterate over the parts in application order.
    pub fn parts(&self) -> impl Iterator<Item = &UpdatePart> {
        self.parts.iter()
    }

    /// Total payload bytes across all parts.
    pub fn payload_bytes(&self) -> usize {
        self.parts.iter().map(UpdatePart::payload_bytes).sum()
    }

    /// Wire size: one header plus the sum of the parts' wire sizes.
    pub fn wire_bytes(&self) -> usize {
        Self::HEADER_BYTES + self.parts.iter().map(UpdatePart::wire_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff_part(page: u64, offset: u32, bytes: Vec<u8>) -> UpdatePart {
        UpdatePart::Diff { page, diff: Diff::from_run(offset, bytes) }
    }

    #[test]
    fn empty_batch_costs_one_header() {
        let b = UpdateBatch::new();
        assert!(b.is_empty());
        assert_eq!(b.wire_bytes(), UpdateBatch::HEADER_BYTES);
        assert_eq!(b.payload_bytes(), 0);
    }

    #[test]
    fn parts_keep_push_order() {
        let mut b = UpdateBatch::new();
        b.push(diff_part(3, 0, vec![1; 8]));
        b.push(UpdatePart::Fine { page: 5, offset: 16, bytes: vec![2; 4] });
        assert_eq!(b.len(), 2);
        let pages: Vec<u64> = b.parts().map(UpdatePart::page).collect();
        assert_eq!(pages, vec![3, 5]);
    }

    #[test]
    fn clones_share_storage_until_a_push() {
        let mut b = UpdateBatch::new();
        b.push(diff_part(3, 0, vec![1; 4096]));
        b.push(UpdatePart::Fine { page: 5, offset: 16, bytes: vec![2; 4] });
        // A clone taken after the last push is the same storage.
        let shared = b.clone();
        assert!(Arc::ptr_eq(&b.parts, &shared.parts));
        // A push after the clone lands in a private copy.
        b.push(diff_part(7, 8, vec![3; 8]));
        assert!(!Arc::ptr_eq(&b.parts, &shared.parts));
        assert_eq!(b.len(), 3);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.parts().map(UpdatePart::page).collect::<Vec<_>>(), vec![3, 5]);
        assert_eq!(shared.wire_bytes(), b.wire_bytes() - (16 + 8 + 8));
    }

    #[test]
    fn part_wire_matches_standalone_message_costs() {
        // A diff part costs a 16-byte page header plus the diff's wire, a
        // fine part what a standalone ApplyFine costs (24 + payload).
        let d = Diff::from_run(0, vec![0xAB; 24]);
        let dp = UpdatePart::Diff { page: 1, diff: d.clone() };
        assert_eq!(dp.wire_bytes(), 16 + d.wire_bytes());
        assert_eq!(dp.payload_bytes(), 24);
        let fp = UpdatePart::Fine { page: 1, offset: 0, bytes: vec![0; 100] };
        assert_eq!(fp.wire_bytes(), 124);
        assert_eq!(fp.payload_bytes(), 100);
    }

    #[test]
    fn batch_wire_is_header_plus_parts() {
        let mut b = UpdateBatch::new();
        b.push(diff_part(0, 0, vec![1; 16]));
        b.push(UpdatePart::Fine { page: 1, offset: 8, bytes: vec![2; 40] });
        let parts_sum: usize = b.parts().map(UpdatePart::wire_bytes).sum();
        assert_eq!(b.wire_bytes(), UpdateBatch::HEADER_BYTES + parts_sum);
        assert_eq!(b.payload_bytes(), 16 + 40);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn part_strategy() -> impl Strategy<Value = UpdatePart> {
        prop_oneof![
            (0u64..64, 0u32..32, proptest::collection::vec(any::<u8>(), 1..64)).prop_map(
                |(page, word, bytes)| UpdatePart::Diff {
                    page,
                    diff: Diff::from_run(word * 8, bytes),
                }
            ),
            (0u64..64, 0u32..200, proptest::collection::vec(any::<u8>(), 0..64))
                .prop_map(|(page, offset, bytes)| UpdatePart::Fine { page, offset, bytes }),
        ]
    }

    proptest! {
        /// The satellite invariant: a batch's wire size is exactly one
        /// header plus the sum of its components' wire sizes, and its
        /// payload is the sum of the components' payloads — no bytes appear
        /// or vanish by batching.
        #[test]
        fn wire_bytes_is_header_plus_component_sum(
            parts in proptest::collection::vec(part_strategy(), 0..24)
        ) {
            let mut b = UpdateBatch::new();
            let mut wire_sum = 0usize;
            let mut payload_sum = 0usize;
            for p in parts {
                wire_sum += p.wire_bytes();
                payload_sum += p.payload_bytes();
                b.push(p);
            }
            prop_assert_eq!(b.wire_bytes(), UpdateBatch::HEADER_BYTES + wire_sum);
            prop_assert_eq!(b.payload_bytes(), payload_sum);
        }
    }
}
