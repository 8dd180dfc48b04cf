//! Page → home-server mapping.
//!
//! Homes are assigned by striping at *cache line* granularity (a line being
//! `line_pages` consecutive pages): all pages of one line share a home, so a
//! line fetch is a single request, while consecutive lines rotate across
//! servers so that large striped allocations spread load — the hot-spot
//! avoidance that motivates the paper's third allocation strategy.

use crate::page::PageId;

/// Maps pages to their home memory server.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HomeMap {
    servers: u32,
    line_pages: u32,
}

impl HomeMap {
    /// A mapping over `servers` memory servers with `line_pages`-page lines.
    ///
    /// # Panics
    /// Panics unless both arguments are at least 1.
    pub fn new(servers: u32, line_pages: u32) -> Self {
        assert!(servers >= 1, "need at least one memory server");
        assert!(line_pages >= 1, "lines must hold at least one page");
        HomeMap { servers, line_pages }
    }

    /// Number of memory servers.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Pages per cache line.
    pub fn line_pages(&self) -> u32 {
        self.line_pages
    }

    /// The cache line a page belongs to.
    #[inline]
    pub fn line_of(&self, page: PageId) -> u64 {
        page.0 / self.line_pages as u64
    }

    /// First page of a line.
    #[inline]
    pub fn first_page_of_line(&self, line: u64) -> PageId {
        PageId(line * self.line_pages as u64)
    }

    /// Home server index for a page.
    #[inline]
    pub fn home_of_page(&self, page: PageId) -> u32 {
        (self.line_of(page) % self.servers as u64) as u32
    }

    /// Home server index for a line.
    #[inline]
    pub fn home_of_line(&self, line: u64) -> u32 {
        (line % self.servers as u64) as u32
    }

    /// Replica server for data homed on `server`, under a static rotation
    /// by `offset`: the write-through secondary home that failover re-homes
    /// to when the primary dies. `None` when replication is disabled
    /// (`offset == 0`) or the rotation degenerates to the primary itself
    /// (`offset` a multiple of the server count — only possible with a
    /// single server).
    #[inline]
    pub fn replica_of_server(&self, server: u32, offset: u32) -> Option<u32> {
        if offset == 0 || offset.is_multiple_of(self.servers) {
            return None;
        }
        Some((server + offset) % self.servers)
    }

    /// Replica server for a line; see [`HomeMap::replica_of_server`].
    #[inline]
    pub fn replica_of_line(&self, line: u64, offset: u32) -> Option<u32> {
        self.replica_of_server(self.home_of_line(line), offset)
    }

    /// Replica server for a page; see [`HomeMap::replica_of_server`].
    #[inline]
    pub fn replica_of_page(&self, page: PageId, offset: u32) -> Option<u32> {
        self.replica_of_server(self.home_of_page(page), offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_of_one_line_share_a_home() {
        let m = HomeMap::new(3, 4);
        for line in 0..10u64 {
            let home = m.home_of_line(line);
            for p in 0..4u64 {
                let page = PageId(line * 4 + p);
                assert_eq!(m.line_of(page), line);
                assert_eq!(m.home_of_page(page), home);
            }
        }
    }

    #[test]
    fn consecutive_lines_rotate_servers() {
        let m = HomeMap::new(4, 2);
        let homes: Vec<u32> = (0..8).map(|l| m.home_of_line(l)).collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn single_server_homes_everything() {
        let m = HomeMap::new(1, 4);
        assert!((0..100).all(|l| m.home_of_line(l) == 0));
    }

    #[test]
    fn line_page_roundtrip() {
        let m = HomeMap::new(2, 4);
        assert_eq!(m.first_page_of_line(3), PageId(12));
        assert_eq!(m.line_of(PageId(12)), 3);
        assert_eq!(m.line_of(PageId(15)), 3);
        assert_eq!(m.line_of(PageId(16)), 4);
    }

    #[test]
    fn striping_balances_load() {
        let m = HomeMap::new(4, 4);
        let mut counts = [0u32; 4];
        for line in 0..1000 {
            counts[m.home_of_line(line) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 250));
    }

    #[test]
    #[should_panic(expected = "at least one memory server")]
    fn zero_servers_rejected() {
        HomeMap::new(0, 1);
    }

    #[test]
    fn replica_rotates_away_from_the_home() {
        let m = HomeMap::new(3, 2);
        for line in 0..12u64 {
            let home = m.home_of_line(line);
            let replica = m.replica_of_line(line, 1).unwrap();
            assert_ne!(replica, home, "a replica co-located with its primary is useless");
            assert_eq!(replica, (home + 1) % 3);
            assert_eq!(m.replica_of_page(m.first_page_of_line(line), 1), Some(replica));
        }
    }

    #[test]
    fn replica_disabled_or_degenerate_is_none() {
        let m = HomeMap::new(3, 2);
        assert_eq!(m.replica_of_server(1, 0), None, "offset 0 means no replication");
        assert_eq!(m.replica_of_server(1, 3), None, "full rotation degenerates to the home");
        let single = HomeMap::new(1, 4);
        assert_eq!(single.replica_of_server(0, 1), None, "one server cannot host a replica");
    }
}
