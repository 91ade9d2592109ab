//! Wire protocol of the traditional stack: block IO to EBS volumes,
//! DRBD-style block shipping to the standby, and binlog events to the
//! replica. Message classes let Table 1 count the write IOs leaving the
//! database node, exactly as the paper does.

use aurora_log::{LogRecord, Lsn, Page, PageId, PAGE_SIZE};
use aurora_sim::{name, Msg, Name, Payload, SimTime};

/// Append redo-log (or binlog) bytes to the volume.
#[derive(Debug, Clone)]
pub struct EbsAppend {
    pub req_id: u64,
    /// Serialized size being written.
    pub bytes: usize,
    /// The records themselves (kept so recovery can replay them).
    pub records: Vec<LogRecord>,
    /// True for binlog appends (archived, not replayed).
    pub binlog: bool,
}

impl Payload for EbsAppend {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32 + self.bytes
    }
    fn class(&self) -> &'static Name {
        name!("ebs_log_write")
    }
}

/// Write a full data page (the flusher / eviction path). One message per
/// page: the paper's write amplification is real IOs, not bytes.
#[derive(Debug, Clone)]
pub struct EbsWritePage {
    pub req_id: u64,
    pub page_id: PageId,
    pub page: Page,
    /// True for the double-write-buffer copy that precedes the in-place
    /// write (torn-page protection).
    pub doublewrite: bool,
}

impl Payload for EbsWritePage {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32 + PAGE_SIZE
    }
    fn class(&self) -> &'static Name {
        name!("ebs_page_write")
    }
}

/// Generic ack from the EBS volume (after its own mirror chain).
#[derive(Debug, Clone)]
pub struct EbsAck {
    pub req_id: u64,
}

impl Payload for EbsAck {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        16
    }
    fn class(&self) -> &'static Name {
        name!("ebs_ack")
    }
}

/// Read a page back (buffer-pool miss).
#[derive(Debug, Clone)]
pub struct EbsReadPage {
    pub req_id: u64,
    pub page_id: PageId,
}

impl Payload for EbsReadPage {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        24
    }
    fn class(&self) -> &'static Name {
        name!("ebs_page_read")
    }
}

/// Page contents.
#[derive(Debug, Clone)]
pub struct EbsReadResp {
    pub req_id: u64,
    pub page_id: PageId,
    pub page: Page,
}

impl Payload for EbsReadResp {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        24 + PAGE_SIZE
    }
    fn class(&self) -> &'static Name {
        name!("ebs_page_resp")
    }
}

/// EBS-internal: chain a block write to the in-AZ mirror.
#[derive(Debug, Clone)]
pub struct MirrorWrite {
    pub req_id: u64,
    pub bytes: usize,
}

impl Payload for MirrorWrite {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        16 + self.bytes
    }
    fn class(&self) -> &'static Name {
        name!("ebs_mirror")
    }
}

/// Mirror completion.
#[derive(Debug, Clone)]
pub struct MirrorAck {
    pub req_id: u64,
}

impl Payload for MirrorAck {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        16
    }
    fn class(&self) -> &'static Name {
        name!("ebs_mirror")
    }
}

/// DRBD-style synchronous shipment of primary block writes to the standby
/// instance (Figure 2, step 3).
#[derive(Debug, Clone)]
pub struct StandbyShip {
    pub req_id: u64,
    pub bytes: usize,
}

impl Payload for StandbyShip {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        24 + self.bytes
    }
    fn class(&self) -> &'static Name {
        name!("standby_ship")
    }
}

/// Standby confirms its own EBS chain persisted the blocks (steps 4–5).
#[derive(Debug, Clone)]
pub struct StandbyAck {
    pub req_id: u64,
}

impl Payload for StandbyAck {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        16
    }
    fn class(&self) -> &'static Name {
        name!("standby_ship")
    }
}

/// A committed transaction's binlog event, shipped asynchronously to the
/// replication replica (Table 4's lag path).
#[derive(Debug, Clone)]
pub struct BinlogEvent {
    /// Commit sequence number.
    pub seq: u64,
    /// Serialized statement size.
    pub bytes: usize,
    /// When the transaction committed on the primary.
    pub committed_at: SimTime,
}

impl Payload for BinlogEvent {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32 + self.bytes
    }
    fn class(&self) -> &'static Name {
        name!("binlog")
    }
}

/// Recovery: fetch the redo records since the last checkpoint.
#[derive(Debug, Clone)]
pub struct ReplayReq {
    pub req_id: u64,
    pub from_lsn: Lsn,
}

impl Payload for ReplayReq {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        24
    }
    fn class(&self) -> &'static Name {
        name!("recovery")
    }
}

/// The redo tail to replay.
#[derive(Debug, Clone)]
pub struct ReplayResp {
    pub req_id: u64,
    pub records: Vec<LogRecord>,
}

impl Payload for ReplayResp {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        16 + self.records.iter().map(|r| r.wire_size()).sum::<usize>()
    }
    fn class(&self) -> &'static Name {
        name!("recovery")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_separate_log_and_page_traffic() {
        let a = EbsAppend {
            req_id: 1,
            bytes: 100,
            records: vec![],
            binlog: false,
        };
        assert_eq!(a.class().name(), "ebs_log_write");
        assert_eq!(a.wire_size(), 132);
        let p = EbsWritePage {
            req_id: 1,
            page_id: PageId(0),
            page: Page::new(),
            doublewrite: true,
        };
        assert_eq!(p.class().name(), "ebs_page_write");
        assert!(p.wire_size() > PAGE_SIZE);
    }
}
