//! Simulated EBS: a networked block volume with an in-AZ mirror.
//!
//! Figure 2, steps 1–2: "writes are issued to EBS, which in turn issues it
//! to an AZ-local mirror, and the acknowledgement is received when both
//! are done." The volume actor persists to its own (IOPS-capped) disk and
//! chains every write to an [`EbsMirror`]; the requester's ack waits for
//! both. Page contents and the redo/binlog byte streams are retained so
//! the baseline engine can read pages back and replay its log during
//! ARIES-style recovery.

use aurora_sim::hash::FxHashMap as HashMap;

use aurora_log::{apply_record, Lsn, Page, PageId};
use aurora_sim::{name, Actor, ActorEvent, Ctx, Name, NodeId, Tag};

use crate::wire::*;

enum PendingKind {
    Append {
        from: NodeId,
    },
    Page {
        from: NodeId,
    },
    Read {
        from: NodeId,
        req_id: u64,
        page_id: PageId,
    },
}

struct Pending {
    kind: PendingKind,
    req_id: u64,
    /// Set once the local disk write completed.
    disk_done: bool,
    /// Set once the mirror acked (reads skip the mirror).
    mirror_done: bool,
}

/// The EBS volume actor.
pub struct EbsVolume {
    mirror: Option<NodeId>,
    // durable contents
    pages: HashMap<PageId, Page>,
    log: Vec<aurora_log::LogRecord>,
    binlog_bytes: u64,
    // volatile
    pending: HashMap<Tag, Pending>,
    next_op: Tag,
}

impl EbsVolume {
    pub fn new(mirror: Option<NodeId>) -> Self {
        EbsVolume {
            mirror,
            pages: HashMap::default(),
            log: Vec::new(),
            binlog_bytes: 0,
            pending: HashMap::default(),
            next_op: 1,
        }
    }

    /// Inspection: current image of a page.
    pub fn page(&self, id: PageId) -> Option<&Page> {
        self.pages.get(&id)
    }

    /// Inspection: redo records retained.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Apply the redo tail to the stored pages (used after a crash if the
    /// engine asks for replay — the volume is the authority on blocks).
    pub fn records_from(&self, from: Lsn) -> Vec<aurora_log::LogRecord> {
        self.log.iter().filter(|r| r.lsn > from).cloned().collect()
    }

    fn op(&mut self, p: Pending) -> Tag {
        let tag = self.next_op;
        self.next_op += 1;
        self.pending.insert(tag, p);
        tag
    }

    fn try_complete(&mut self, ctx: &mut Ctx<'_>, tag: Tag) {
        let Some(p) = self.pending.get(&tag) else {
            return;
        };
        let mirror_needed = self.mirror.is_some() && !matches!(p.kind, PendingKind::Read { .. });
        if !p.disk_done || (mirror_needed && !p.mirror_done) {
            return;
        }
        let p = self.pending.remove(&tag).unwrap();
        match p.kind {
            PendingKind::Append { from } | PendingKind::Page { from } => {
                ctx.send(from, EbsAck { req_id: p.req_id });
            }
            PendingKind::Read {
                from,
                req_id,
                page_id,
            } => {
                let page = self.pages.get(&page_id).cloned().unwrap_or_default();
                ctx.send(
                    from,
                    EbsReadResp {
                        req_id,
                        page_id,
                        page,
                    },
                );
            }
        }
    }
}

impl Actor for EbsVolume {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Message { from, msg } => {
                let msg = match msg.downcast::<EbsAppend>() {
                    Ok(a) => {
                        if a.binlog {
                            self.binlog_bytes += a.bytes as u64;
                        } else {
                            self.log.extend(a.records);
                        }
                        let bytes = a.bytes;
                        let tag = self.op(Pending {
                            kind: PendingKind::Append { from },
                            req_id: a.req_id,
                            disk_done: false,
                            mirror_done: false,
                        });
                        ctx.disk_write(bytes.max(512), tag);
                        if let Some(m) = self.mirror {
                            ctx.send(m, MirrorWrite { req_id: tag, bytes });
                        }
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<EbsWritePage>() {
                    Ok(w) => {
                        if !w.doublewrite {
                            self.pages.insert(w.page_id, w.page);
                        }
                        let tag = self.op(Pending {
                            kind: PendingKind::Page { from },
                            req_id: w.req_id,
                            disk_done: false,
                            mirror_done: false,
                        });
                        ctx.disk_write(aurora_log::PAGE_SIZE, tag);
                        if let Some(m) = self.mirror {
                            ctx.send(
                                m,
                                MirrorWrite {
                                    req_id: tag,
                                    bytes: aurora_log::PAGE_SIZE,
                                },
                            );
                        }
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<EbsReadPage>() {
                    Ok(r) => {
                        let tag = self.op(Pending {
                            kind: PendingKind::Read {
                                from,
                                req_id: r.req_id,
                                page_id: r.page_id,
                            },
                            req_id: r.req_id,
                            disk_done: false,
                            mirror_done: true,
                        });
                        ctx.disk_read(aurora_log::PAGE_SIZE, tag);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<MirrorAck>() {
                    Ok(a) => {
                        if let Some(p) = self.pending.get_mut(&a.req_id) {
                            p.mirror_done = true;
                        }
                        self.try_complete(ctx, a.req_id);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<ReplayReq>() {
                    Ok(r) => {
                        let records = self.records_from(r.from_lsn);
                        ctx.send(
                            from,
                            ReplayResp {
                                req_id: r.req_id,
                                records,
                            },
                        );
                        return;
                    }
                    Err(m) => m,
                };
                // The engine may ask us to fold replayed records into pages
                // (recovery finishes by making the block state consistent).
                if let Ok(apply) = msg.downcast::<ApplyToPages>() {
                    for rec in &apply.records {
                        if let Some(page_id) = rec.page() {
                            let page = self.pages.entry(page_id).or_default();
                            let _ = apply_record(page, rec);
                        }
                    }
                }
            }
            ActorEvent::DiskDone { tag, .. } => {
                if let Some(p) = self.pending.get_mut(&tag) {
                    p.disk_done = true;
                }
                self.try_complete(ctx, tag);
            }
            _ => {}
        }
    }

    fn on_crash(&mut self) {
        // EBS itself is durable network storage; in-flight ops are lost
        self.pending.clear();
    }
}

/// Internal message: fold records into the volume's page images.
#[derive(Debug, Clone)]
pub struct ApplyToPages {
    pub records: Vec<aurora_log::LogRecord>,
}

impl aurora_sim::Payload for ApplyToPages {
    fn wire_size(&self) -> usize {
        16 + self.records.iter().map(|r| r.wire_size()).sum::<usize>()
    }
    fn class(&self) -> &'static Name {
        name!("recovery")
    }
}

/// The in-AZ mirror of an EBS volume: persists and acks.
pub struct EbsMirror;

impl Actor for EbsMirror {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Message { from, msg } => {
                if let Ok(w) = msg.downcast::<MirrorWrite>() {
                    // persist, then ack with the same req id; encode the
                    // requester in the high bits of the disk tag
                    let tag = (w.req_id << 20) | from as Tag;
                    ctx.disk_write(w.bytes.max(512), tag);
                }
            }
            ActorEvent::DiskDone { tag, .. } => {
                let from = (tag & 0xF_FFFF) as NodeId;
                let req_id = tag >> 20;
                ctx.send(from, MirrorAck { req_id });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_log::{LogRecord, PgId, RecordBody, TxnId};
    use aurora_sim::{NodeOpts, Probe, Relay, Sim, SimDuration, Zone};

    fn setup() -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(77);
        let client = sim.add_node("c", Zone(0), Box::new(Probe::new()), NodeOpts::default());
        let mirror = sim.add_node("m", Zone(0), Box::new(EbsMirror), NodeOpts::default());
        let ebs = sim.add_node(
            "ebs",
            Zone(0),
            Box::new(EbsVolume::new(Some(mirror))),
            NodeOpts::default(),
        );
        (sim, client, ebs)
    }

    #[test]
    fn append_acks_after_disk_and_mirror() {
        let (mut sim, client, ebs) = setup();
        sim.tell(
            client,
            Relay::new(
                ebs,
                EbsAppend {
                    req_id: 9,
                    bytes: 1_024,
                    records: vec![],
                    binlog: false,
                },
            ),
        );
        sim.run_for(SimDuration::from_millis(10));
        let probe = sim.actor::<Probe>(client);
        let acks = probe.received::<EbsAck>();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].1.req_id, 9);
    }

    #[test]
    fn page_write_read_roundtrip() {
        let (mut sim, client, ebs) = setup();
        let mut page = Page::new();
        page.write_range(0, b"block");
        sim.tell(
            client,
            Relay::new(
                ebs,
                EbsWritePage {
                    req_id: 1,
                    page_id: PageId(5),
                    page,
                    doublewrite: false,
                },
            ),
        );
        sim.run_for(SimDuration::from_millis(10));
        sim.tell(
            client,
            Relay::new(
                ebs,
                EbsReadPage {
                    req_id: 2,
                    page_id: PageId(5),
                },
            ),
        );
        sim.run_for(SimDuration::from_millis(10));
        let probe = sim.actor::<Probe>(client);
        let resp = probe.received::<EbsReadResp>();
        assert_eq!(resp.len(), 1);
        assert_eq!(&resp[0].1.page.bytes()[..5], b"block");
    }

    #[test]
    fn doublewrite_does_not_update_page_image() {
        let (mut sim, client, ebs) = setup();
        let mut page = Page::new();
        page.write_range(0, b"dw");
        sim.tell(
            client,
            Relay::new(
                ebs,
                EbsWritePage {
                    req_id: 1,
                    page_id: PageId(5),
                    page,
                    doublewrite: true,
                },
            ),
        );
        sim.run_for(SimDuration::from_millis(10));
        let vol = sim.actor::<EbsVolume>(ebs);
        assert!(vol.page(PageId(5)).is_none());
    }

    #[test]
    fn log_retained_for_replay() {
        let (mut sim, client, ebs) = setup();
        let rec = LogRecord {
            lsn: Lsn(5),
            prev_in_pg: Lsn(4),
            pg: PgId(0),
            txn: TxnId(1),
            is_cpl: true,
            body: RecordBody::TxnCommit,
        };
        sim.tell(
            client,
            Relay::new(
                ebs,
                EbsAppend {
                    req_id: 1,
                    bytes: 64,
                    records: vec![rec],
                    binlog: false,
                },
            ),
        );
        sim.run_for(SimDuration::from_millis(10));
        sim.tell(
            client,
            Relay::new(
                ebs,
                ReplayReq {
                    req_id: 2,
                    from_lsn: Lsn(0),
                },
            ),
        );
        sim.run_for(SimDuration::from_millis(10));
        let probe = sim.actor::<Probe>(client);
        let resp = probe.received::<ReplayResp>();
        assert_eq!(resp[0].1.records.len(), 1);
        // binlog appends are archived, not replayable
        assert_eq!(sim.actor::<EbsVolume>(ebs).log_len(), 1);
    }
}
