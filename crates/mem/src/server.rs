//! The memory-server request engine.
//!
//! [`MemoryServer::handle`] is a pure function of (request, virtual arrival
//! time) → (response, virtual completion time). Service time follows a
//! simple DRAM-path model: a fixed per-request cost plus a per-byte cost,
//! reserved on a [`VirtualResource`] so concurrent requesters queue — this
//! is where single-server hot-spots come from. A fetch pays per byte only
//! for the pages the home has written: a never-written page is named by
//! its version alone (see [`MemResponse`]). The SCL event loop that feeds
//! this engine lives in `samhita-core`.

use samhita_regc::{Diff, UpdateBatch, UpdatePart};
use samhita_scl::{ServiceModel, SimTime, VirtualResource};

use crate::page::PageId;
use crate::store::{PageFrame, PageStore};

/// Requests a memory server understands.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // payloads are described on each variant
pub enum MemRequest {
    /// Fetch `pages` consecutive pages starting at `first`: a cache line,
    /// or the run of a line's pages a revalidation needs.
    FetchLine { first: PageId, pages: u32 },
    /// Apply a fine-grain consistency-region update.
    ApplyFine { page: PageId, offset: u32, bytes: Vec<u8> },
    /// Overwrite a whole page (whole-page consistency ablation).
    WritePage { page: PageId, bytes: Vec<u8> },
    /// Apply a whole flush (sync-time or eviction) bound for this server as
    /// one message: all parts are applied atomically, in order, under one
    /// request token.
    UpdateBatch { batch: UpdateBatch },
}

impl MemRequest {
    /// Short operation label, for trace events.
    pub fn label(&self) -> &'static str {
        match self {
            MemRequest::FetchLine { .. } => "fetch-line",
            MemRequest::ApplyFine { .. } => "apply-fine",
            MemRequest::WritePage { .. } => "write-page",
            MemRequest::UpdateBatch { .. } => "update-batch",
        }
    }

    /// Payload bytes this request carries on the wire (request direction).
    pub fn wire_bytes(&self) -> usize {
        match self {
            MemRequest::FetchLine { .. } => 16,
            MemRequest::ApplyFine { bytes, .. } => 24 + bytes.len(),
            MemRequest::WritePage { bytes, .. } => 16 + bytes.len(),
            MemRequest::UpdateBatch { batch } => batch.wire_bytes(),
        }
    }
}

/// Responses a memory server produces. Page data travels as references to
/// the store's frames (see [`crate::store`]); the wire size and every
/// virtual cost are those of the bytes a real fabric would carry.
///
/// A page nobody has written is at version 0 at its home, and its bytes
/// are the store's shared zero frame: a reply names it by its 8-byte
/// version alone, and the reader's copy is that zero frame. The rule keys
/// on the version, never on the bytes — a page written with zeros is at
/// version 1 or later and travels whole.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // payloads are described on each variant
pub enum MemResponse {
    /// Line payload: each page's frame, in order, with its version.
    Line { first: PageId, pages: Vec<PageFrame> },
    /// Mutation acknowledged; carries the new page version.
    Ack { page: PageId, version: u64 },
    /// Whole batch acknowledged as one unit; carries the part count.
    BatchAck { parts: u32 },
}

impl MemResponse {
    /// Payload bytes this response carries on the wire: a header, each
    /// page's version, and the bytes of the pages its home has written.
    pub fn wire_bytes(&self) -> usize {
        match self {
            MemResponse::Line { pages, .. } => 16 + 8 * pages.len() + self.page_bytes(),
            MemResponse::Ack { .. } => 16,
            MemResponse::BatchAck { .. } => 16,
        }
    }

    /// The frames of a line whose home has written them (version 1 or
    /// later): the pages whose bytes the reply carries.
    fn written(&self) -> impl Iterator<Item = &PageFrame> {
        let pages = match self {
            MemResponse::Line { pages, .. } => &pages[..],
            MemResponse::Ack { .. } | MemResponse::BatchAck { .. } => &[],
        };
        pages.iter().filter(|p| p.version() > 0)
    }

    /// How many of a line's pages its home has written.
    pub fn written_pages(&self) -> usize {
        self.written().count()
    }

    /// Page data the reply carries: the bytes of its written pages.
    pub fn page_bytes(&self) -> usize {
        self.written().map(|p| p.bytes().len()).sum()
    }
}

/// Counters kept by one server.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Fetches served: cache lines and revalidated runs of their pages.
    pub line_fetches: u64,
    /// Ordinary-region diffs applied.
    pub diffs_applied: u64,
    /// Total diff payload applied, bytes.
    pub diff_payload_bytes: u64,
    /// Fine-grain (consistency-region) updates applied.
    pub fine_updates: u64,
    /// Total fine-grain payload applied, bytes.
    pub fine_payload_bytes: u64,
    /// Whole-page overwrites (ablation path).
    pub whole_page_writes: u64,
    /// Virtual busy time of the service resource.
    pub busy_ns: u64,
    /// Requests served by the service resource.
    pub requests: u64,
    /// Total virtual time requests queued before service began.
    pub queue_wait_ns: u64,
    /// Peak system occupancy observed at any arrival (1 = uncontended).
    pub peak_queue_depth: u64,
    /// Sum of arrival-sampled occupancies (mean = sum / requests).
    pub queue_depth_sum: u64,
    /// Requests held on arrival until the update batches they must follow
    /// had been applied.
    pub parked: u64,
}

/// One memory server: page store + queueing resource + counters.
pub struct MemoryServer {
    store: PageStore,
    resource: VirtualResource,
    model: ServiceModel,
    stats: ServerStats,
}

impl MemoryServer {
    /// A server for `page_size`-byte pages under the given service model.
    pub fn new(page_size: usize, model: ServiceModel) -> Self {
        MemoryServer {
            store: PageStore::new(page_size),
            resource: VirtualResource::new(),
            model,
            stats: ServerStats::default(),
        }
    }

    /// Process one request arriving at virtual time `arrival`. Returns the
    /// response and the virtual completion time (when the response can leave
    /// the server).
    pub fn handle(&mut self, req: MemRequest, arrival: SimTime) -> (MemResponse, SimTime) {
        let (resp, _start, done) = self.serve(req, arrival);
        (resp, done)
    }

    /// [`MemoryServer::handle`], also returning when service began, after
    /// the request queued: `(response, start, completion)`.
    pub fn serve(&mut self, req: MemRequest, arrival: SimTime) -> (MemResponse, SimTime, SimTime) {
        let (resp, service) = match req {
            MemRequest::FetchLine { first, pages } => {
                self.stats.line_fetches += 1;
                let line =
                    MemResponse::Line { first, pages: self.store.read_line(first, pages as usize) };
                let service = self.model.service_ns(line.page_bytes());
                (line, service)
            }
            MemRequest::ApplyFine { page, offset, bytes } => {
                let service = self.model.apply_ns(bytes.len());
                let version = self.apply_fine_part(page, offset, &bytes);
                (MemResponse::Ack { page, version }, service)
            }
            MemRequest::WritePage { page, bytes } => {
                self.stats.whole_page_writes += 1;
                let service = self.model.apply_ns(bytes.len());
                let version = self.store.write_page(page, &bytes);
                (MemResponse::Ack { page, version }, service)
            }
            MemRequest::UpdateBatch { batch } => {
                // Apply all parts in push order, atomically with respect to
                // other requests (the whole batch occupies one service
                // window). One DMA scatter setup covers every part; see
                // [`ServiceModel::batch_apply_ns`] for why no per-byte cost
                // is charged here.
                let _prof = samhita_prof::enter(samhita_prof::Phase::BatchApply);
                let service = self.model.batch_apply_ns();
                for part in batch.parts() {
                    match part {
                        UpdatePart::Diff { page, diff } => {
                            self.apply_diff_part(PageId(*page), diff);
                        }
                        UpdatePart::Fine { page, offset, bytes } => {
                            self.apply_fine_part(PageId(*page), *offset, bytes);
                        }
                    }
                }
                (MemResponse::BatchAck { parts: batch.len() as u32 }, service)
            }
        };
        let (start, done) = self.resource.reserve(arrival, service);
        (resp, start, done)
    }

    fn apply_diff_part(&mut self, page: PageId, diff: &Diff) {
        self.stats.diffs_applied += 1;
        self.stats.diff_payload_bytes += diff.payload_bytes() as u64;
        self.store.apply_diff(page, diff);
    }

    fn apply_fine_part(&mut self, page: PageId, offset: u32, bytes: &[u8]) -> u64 {
        self.stats.fine_updates += 1;
        self.stats.fine_payload_bytes += bytes.len() as u64;
        self.store.apply_fine(page, offset, bytes)
    }

    /// The end of the last service window: the instant the server has
    /// settled, once nothing is queued.
    pub fn settled_at(&self) -> SimTime {
        SimTime::from_ns(self.resource.stats().clock_ns)
    }

    /// Usage counters (busy + queue accounting read from the live resource).
    pub fn stats(&self) -> ServerStats {
        let mut s = self.stats;
        let r = self.resource.stats();
        s.busy_ns = r.busy_ns;
        s.requests = r.requests;
        s.queue_wait_ns = r.queue_wait_ns;
        s.peak_queue_depth = r.peak_depth;
        s.queue_depth_sum = r.depth_sum;
        s
    }

    /// Count a request held until the batches it follows were applied.
    pub fn note_parked(&mut self) {
        self.stats.parked += 1;
    }

    /// Reset the service resource's queue accounting between runs.
    pub fn reset_queue_accounting(&self) {
        self.resource.reset_queue_accounting();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> MemoryServer {
        MemoryServer::new(256, ServiceModel::default())
    }

    /// Fetch one page as a one-page run.
    fn fetch_page(s: &mut MemoryServer, page: u64, at: SimTime) -> PageFrame {
        let (resp, _) = s.handle(MemRequest::FetchLine { first: PageId(page), pages: 1 }, at);
        match resp {
            MemResponse::Line { mut pages, .. } if pages.len() == 1 => pages.remove(0),
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// Overwrite `page` with zeros at `at`: written, so fetched in full.
    fn write_zeros(s: &mut MemoryServer, page: u64, at: SimTime) -> SimTime {
        s.handle(MemRequest::WritePage { page: PageId(page), bytes: vec![0; 256] }, at).1
    }

    #[test]
    fn fetch_line_returns_zeroed_pages_and_completion_time() {
        let mut s = server();
        for page in 0..4 {
            write_zeros(&mut s, page, SimTime::ZERO);
        }
        let (resp, done) =
            s.handle(MemRequest::FetchLine { first: PageId(0), pages: 4 }, SimTime::from_ns(1_000));
        match resp {
            MemResponse::Line { pages, .. } => {
                assert_eq!(pages.len(), 4);
                assert!(pages.iter().all(|p| p.bytes() == [0; 256] && p.version() == 1));
            }
            other => panic!("unexpected response {other:?}"),
        }
        let expected = SimTime::from_ns(1_000) + ServiceModel::default().service_ns(1024);
        assert_eq!(done, expected);
    }

    /// A line nobody has written costs the request's base and travels as
    /// its versions: the reader gets the store's shared zero frame.
    #[test]
    fn a_never_written_line_costs_the_base_and_its_versions() {
        let mut s = server();
        let (resp, done) =
            s.handle(MemRequest::FetchLine { first: PageId(0), pages: 4 }, SimTime::from_ns(100));
        assert_eq!(done, SimTime::from_ns(100 + ServiceModel::default().base_ns));
        assert_eq!((resp.written_pages(), resp.page_bytes()), (0, 0));
        assert_eq!(resp.wire_bytes(), 16 + 4 * 8);
        let MemResponse::Line { pages, .. } = resp else { panic!("a fetch returns a line") };
        assert!(pages.iter().all(|p| p.bytes() == [0; 256] && p.version() == 0));
        assert!(pages.iter().all(|p| p.shares_bytes_with(&pages[0])), "one shared zero frame");
    }

    /// A line with one written page charges that page's bytes alone, and
    /// carries them alone.
    #[test]
    fn a_mixed_line_charges_only_its_written_pages() {
        let mut s = server();
        s.handle(
            MemRequest::ApplyFine { page: PageId(2), offset: 8, bytes: vec![7; 8] },
            SimTime::ZERO,
        );
        let at = SimTime::from_ns(1_000);
        let (resp, done) = s.handle(MemRequest::FetchLine { first: PageId(0), pages: 4 }, at);
        assert_eq!(done, at + ServiceModel::default().service_ns(256));
        assert_eq!((resp.written_pages(), resp.page_bytes()), (1, 256));
        assert_eq!(resp.wire_bytes(), 16 + 4 * 8 + 256);
        let MemResponse::Line { pages, .. } = resp else { panic!("a fetch returns a line") };
        assert_eq!(&pages[2].bytes()[8..16], &[7; 8]);
    }

    /// The rule keys on the version, not the bytes: a page written with
    /// zeros is read and carried in full.
    #[test]
    fn a_page_written_with_zeros_pays_in_full() {
        let mut s = server();
        let written = write_zeros(&mut s, 0, SimTime::ZERO);
        let (resp, done) = s.handle(MemRequest::FetchLine { first: PageId(0), pages: 1 }, written);
        assert_eq!(done, written + ServiceModel::default().service_ns(256));
        assert_eq!(resp.wire_bytes(), 16 + 8 + 256);
        let (never, _) = s.handle(MemRequest::FetchLine { first: PageId(1), pages: 1 }, done);
        assert_eq!(never.wire_bytes(), 16 + 8);
    }

    #[test]
    fn mutations_visible_to_later_fetches() {
        let mut s = server();
        s.handle(
            MemRequest::ApplyFine { page: PageId(1), offset: 8, bytes: vec![7; 8] },
            SimTime::ZERO,
        );
        let frame = fetch_page(&mut s, 1, SimTime::ZERO);
        assert_eq!(&frame.bytes()[8..16], &[7; 8]);
        assert_eq!(frame.version(), 1);
    }

    #[test]
    fn burst_of_requests_queues_in_virtual_time() {
        let mut s = server();
        let written = write_zeros(&mut s, 0, SimTime::ZERO);
        // Three fetches all "arrive" as the write completes: completions
        // must serialize.
        let mut dones = Vec::new();
        for _ in 0..3 {
            let (_, done) = s.handle(MemRequest::FetchLine { first: PageId(0), pages: 1 }, written);
            dones.push(done);
        }
        let service = ServiceModel::default().service_ns(256);
        assert_eq!(dones[0], written + service);
        assert_eq!(dones[1], written + service + service);
        assert_eq!(dones[2], written + service + service + service);
    }

    /// A request carrying one update part.
    fn one_part(part: UpdatePart) -> MemRequest {
        let mut batch = UpdateBatch::new();
        batch.push(part);
        MemRequest::UpdateBatch { batch }
    }

    #[test]
    fn multiple_writer_merge_through_server() {
        let mut s = server();
        let base = vec![0u8; 256];
        let mut a = base.clone();
        a[0] = 1;
        let mut b = base.clone();
        b[200] = 2;
        s.handle(
            one_part(UpdatePart::Diff { page: 0, diff: Diff::compute(&base, &a) }),
            SimTime::ZERO,
        );
        s.handle(
            one_part(UpdatePart::Diff { page: 0, diff: Diff::compute(&base, &b) }),
            SimTime::ZERO,
        );
        let frame = fetch_page(&mut s, 0, SimTime::ZERO);
        assert_eq!(frame.bytes()[0], 1);
        assert_eq!(frame.bytes()[200], 2);
    }

    #[test]
    fn stats_count_operations() {
        let mut s = server();
        s.handle(MemRequest::FetchLine { first: PageId(0), pages: 2 }, SimTime::ZERO);
        fetch_page(&mut s, 9, SimTime::ZERO);
        s.handle(
            MemRequest::ApplyFine { page: PageId(0), offset: 0, bytes: vec![1; 16] },
            SimTime::ZERO,
        );
        let st = s.stats();
        assert_eq!(st.line_fetches, 2);
        assert_eq!(st.fine_updates, 1);
        assert_eq!(st.fine_payload_bytes, 16);
        assert!(st.busy_ns > 0);
    }

    #[test]
    fn wire_byte_accounting() {
        let req = MemRequest::ApplyFine { page: PageId(0), offset: 0, bytes: vec![0; 100] };
        assert_eq!(req.wire_bytes(), 124);
        let resp = MemResponse::Ack { page: PageId(0), version: 1 };
        assert_eq!(resp.wire_bytes(), 16);
        let pages = vec![PageFrame::new(&[0; 256], 1); 2];
        let line = MemResponse::Line { first: PageId(0), pages };
        assert_eq!(line.wire_bytes(), 16 + 512 + 16);
        // A one-page run costs what a single-page reply always did.
        let one = MemResponse::Line { first: PageId(0), pages: vec![PageFrame::new(&[0; 256], 1)] };
        assert_eq!(one.wire_bytes(), 24 + 256);
        // Never-written pages travel as their versions.
        let never =
            MemResponse::Line { first: PageId(0), pages: vec![PageFrame::new(&[0; 256], 0); 2] };
        assert_eq!(never.wire_bytes(), 16 + 16);
    }

    #[test]
    fn service_time_grows_with_bytes() {
        let m = ServiceModel::default();
        assert!(m.service_ns(16384) > m.service_ns(4096));
        assert_eq!(m.service_ns(0), SimTime::from_ns(m.base_ns));
        assert_eq!(m.service_ns(1024), SimTime::from_ns(m.base_ns + m.per_kib_ns));
    }

    #[test]
    fn batch_applies_all_parts_in_one_service_window() {
        let base = vec![0u8; 256];
        let mut v = base.clone();
        v[0] = 9;
        let diff = Diff::compute(&base, &v);
        let mut batch = UpdateBatch::new();
        batch.push(UpdatePart::Diff { page: 0, diff: diff.clone() });
        batch.push(UpdatePart::Fine { page: 1, offset: 16, bytes: vec![7; 8] });
        let mut s = server();
        let (resp, done) = s.handle(MemRequest::UpdateBatch { batch }, SimTime::ZERO);
        match resp {
            MemResponse::BatchAck { parts } => assert_eq!(parts, 2),
            other => panic!("unexpected response {other:?}"),
        }
        // One scatter-setup cost for the whole batch (zero-copy path):
        // strictly cheaper than the two standalone applies.
        let m = ServiceModel::default();
        assert_eq!(done, m.batch_apply_ns());
        assert!(done < m.apply_ns(diff.payload_bytes()) + m.apply_ns(8));
        let st = s.stats();
        assert_eq!(st.diffs_applied, 1);
        assert_eq!(st.diff_payload_bytes, diff.payload_bytes() as u64);
        assert_eq!(st.fine_updates, 1);
        assert_eq!(st.fine_payload_bytes, 8);
        assert_eq!(fetch_page(&mut s, 0, done).bytes()[0], 9);
        assert_eq!(&fetch_page(&mut s, 1, done).bytes()[16..24], &[7; 8]);
    }

    #[test]
    fn batch_wire_accounting_matches_request_variant() {
        let mut batch = UpdateBatch::new();
        batch.push(UpdatePart::Fine { page: 0, offset: 0, bytes: vec![0; 100] });
        let want = batch.wire_bytes();
        let req = MemRequest::UpdateBatch { batch };
        assert_eq!(req.wire_bytes(), want);
        assert_eq!(req.label(), "update-batch");
        assert_eq!(MemResponse::BatchAck { parts: 1 }.wire_bytes(), 16);
    }

    #[test]
    fn applies_ride_the_cheaper_rdma_path() {
        let m = ServiceModel::default();
        assert!(m.apply_ns(4096) < m.service_ns(4096));
        let mut s = MemoryServer::new(256, m);
        let (_, fetch_done) =
            s.handle(MemRequest::FetchLine { first: PageId(0), pages: 1 }, SimTime::ZERO);
        let mut s2 = MemoryServer::new(256, m);
        let (_, apply_done) = s2
            .handle(MemRequest::WritePage { page: PageId(0), bytes: vec![0; 256] }, SimTime::ZERO);
        assert!(apply_done < fetch_done);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const PS: usize = 256;
    const PAGES: u64 = 8;

    /// The bytes of one page, fetched as a one-page run.
    fn page_bytes(s: &mut MemoryServer, page: u64, at: SimTime) -> Vec<u8> {
        match s.handle(MemRequest::FetchLine { first: PageId(page), pages: 1 }, at).0 {
            MemResponse::Line { pages, .. } => pages[0].bytes().to_vec(),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[derive(Clone, Debug)]
    enum ReqKind {
        FetchLine { line: u64 },
        FetchRun { first: u64, pages: u32 },
        Fine { page: u64, offset: u16, len: u8 },
        Whole { page: u64, fill: u8 },
        DiffWord { page: u64, word: u8, value: u64 },
    }

    fn req_strategy() -> impl Strategy<Value = ReqKind> {
        prop_oneof![
            (0..PAGES / 2).prop_map(|line| ReqKind::FetchLine { line }),
            (0..PAGES, 1u32..=2).prop_map(|(first, pages)| ReqKind::FetchRun {
                first: first.min(PAGES - u64::from(pages)),
                pages
            }),
            (0..PAGES, 0u16..200, 1u8..32).prop_map(|(page, offset, len)| ReqKind::Fine {
                page,
                offset,
                len
            }),
            (0..PAGES, any::<u8>()).prop_map(|(page, fill)| ReqKind::Whole { page, fill }),
            (0..PAGES, 0u8..32, any::<u64>()).prop_map(|(page, word, value)| ReqKind::DiffWord {
                page,
                word,
                value
            }),
        ]
    }

    fn batch_part_strategy() -> impl Strategy<Value = samhita_regc::UpdatePart> {
        prop_oneof![
            (0..PAGES, 0u8..(PS / 8) as u8, any::<u64>()).prop_map(|(page, word, value)| {
                let base = vec![0u8; PS];
                let mut cur = base.clone();
                cur[word as usize * 8..word as usize * 8 + 8].copy_from_slice(&value.to_le_bytes());
                samhita_regc::UpdatePart::Diff {
                    page,
                    diff: samhita_regc::Diff::compute(&base, &cur),
                }
            }),
            (0..PAGES, 0u16..(PS as u16 - 32), 1u8..32).prop_map(|(page, offset, len)| {
                samhita_regc::UpdatePart::Fine {
                    page,
                    offset: offset as u32,
                    bytes: vec![0xC3; len as usize],
                }
            }),
        ]
    }

    proptest! {
        /// Applying a batch is byte-equivalent to applying the same parts
        /// one single-part batch at a time, in the same order — same final
        /// page contents, same counters — and never costs more busy time
        /// (the batch pays one request base instead of one per part).
        #[test]
        fn batch_apply_equals_sequential_apply(
            parts in proptest::collection::vec(batch_part_strategy(), 1..24)
        ) {
            let mut batched = MemoryServer::new(PS, ServiceModel::default());
            let mut sequential = MemoryServer::new(PS, ServiceModel::default());
            let mut batch = UpdateBatch::new();
            for part in &parts {
                batch.push(part.clone());
                let mut one = UpdateBatch::new();
                one.push(part.clone());
                sequential.handle(MemRequest::UpdateBatch { batch: one }, SimTime::ZERO);
            }
            let (resp, done) = batched.handle(MemRequest::UpdateBatch { batch }, SimTime::ZERO);
            match resp {
                MemResponse::BatchAck { parts: n } => prop_assert_eq!(n as usize, parts.len()),
                other => prop_assert!(false, "unexpected {:?}", other),
            }
            // Same application work ⇒ same counters; the batch amortizes
            // the per-request base cost, so it is never busier.
            let bs = batched.stats();
            let ss = sequential.stats();
            prop_assert_eq!(bs.diffs_applied, ss.diffs_applied);
            prop_assert_eq!(bs.diff_payload_bytes, ss.diff_payload_bytes);
            prop_assert_eq!(bs.fine_updates, ss.fine_updates);
            prop_assert_eq!(bs.fine_payload_bytes, ss.fine_payload_bytes);
            prop_assert!(bs.busy_ns <= ss.busy_ns);
            // Byte-equivalent stores.
            for p in 0..PAGES {
                let a = page_bytes(&mut batched, p, done);
                let b = page_bytes(&mut sequential, p, done);
                prop_assert_eq!(a, b, "page {} diverged", p);
            }
        }

        /// A random request stream leaves the server's pages exactly equal
        /// to a flat reference memory, every fetch returns reference
        /// content, and completion times are strictly increasing (single
        /// queue, nonzero service).
        #[test]
        fn server_matches_reference_memory(
            reqs in proptest::collection::vec(req_strategy(), 1..80)
        ) {
            let mut server = MemoryServer::new(PS, ServiceModel::default());
            let mut reference = vec![0u8; PS * PAGES as usize];
            let mut last_done = SimTime::ZERO;
            for (i, kind) in reqs.into_iter().enumerate() {
                let arrival = SimTime::from_ns(i as u64 * 10);
                let req = match &kind {
                    ReqKind::FetchLine { line } =>
                        MemRequest::FetchLine { first: PageId(line * 2), pages: 2 },
                    ReqKind::FetchRun { first, pages } =>
                        MemRequest::FetchLine { first: PageId(*first), pages: *pages },
                    ReqKind::Fine { page, offset, len } => MemRequest::ApplyFine {
                        page: PageId(*page),
                        offset: *offset as u32,
                        bytes: vec![0xA5; *len as usize],
                    },
                    ReqKind::Whole { page, fill } => MemRequest::WritePage {
                        page: PageId(*page),
                        bytes: vec![*fill; PS],
                    },
                    ReqKind::DiffWord { page, word, value } => {
                        let base = &reference
                            [*page as usize * PS..(*page as usize + 1) * PS].to_vec();
                        let mut cur = base.clone();
                        cur[*word as usize * 8..*word as usize * 8 + 8]
                            .copy_from_slice(&value.to_le_bytes());
                        let mut batch = UpdateBatch::new();
                        batch.push(samhita_regc::UpdatePart::Diff {
                            page: *page,
                            diff: samhita_regc::Diff::compute(base, &cur),
                        });
                        MemRequest::UpdateBatch { batch }
                    }
                };
                // Mirror the mutation into the reference.
                match &kind {
                    ReqKind::Fine { page, offset, len } => {
                        let base = *page as usize * PS + *offset as usize;
                        reference[base..base + *len as usize].fill(0xA5);
                    }
                    ReqKind::Whole { page, fill } => {
                        reference[*page as usize * PS..(*page as usize + 1) * PS].fill(*fill);
                    }
                    ReqKind::DiffWord { page, word, value } => {
                        let base = *page as usize * PS + *word as usize * 8;
                        reference[base..base + 8].copy_from_slice(&value.to_le_bytes());
                    }
                    _ => {}
                }
                let (resp, done) = server.handle(req, arrival);
                prop_assert!(done > last_done, "service windows must advance");
                last_done = done;
                match resp {
                    MemResponse::Line { first, pages } => {
                        for (i, frame) in pages.iter().enumerate() {
                            let base = (first.0 as usize + i) * PS;
                            prop_assert_eq!(frame.bytes(), &reference[base..base + PS]);
                        }
                    }
                    MemResponse::Ack { .. } | MemResponse::BatchAck { .. } => {}
                }
            }
            // Final sweep: every page equals the reference.
            for p in 0..PAGES {
                let base = p as usize * PS;
                let bytes = page_bytes(&mut server, p, last_done);
                prop_assert_eq!(&bytes[..], &reference[base..base + PS], "page {}", p);
            }
        }
    }
}
