//! Statement-execution pieces shared by the Aurora engine and the
//! MySQL-style baseline: both run statements against the same B+-tree
//! over a [`BufferPool`], plan writes the same way, and log the same
//! logical undo.

use aurora_log::{Page, PageId, Patch, RecordBody, TxnId};
use aurora_sim::{Ctx, SimDuration, SimTime, Tag};
use bytes::Bytes;

use crate::btree::{PageEditor, PageMiss, PageProvider};
use crate::buffer::BufferPool;
use crate::wire::Op;

/// A [`PageProvider`] over a [`BufferPool`] that captures every page
/// change as a redo record body.
pub struct PoolProvider<'a> {
    pool: &'a mut BufferPool,
    /// Redo for the changes made through this provider, in order.
    pub bodies: Vec<RecordBody>,
}

impl<'a> PoolProvider<'a> {
    pub fn new(pool: &'a mut BufferPool) -> Self {
        PoolProvider {
            pool,
            bodies: Vec::new(),
        }
    }
}

impl<'a> PageProvider for PoolProvider<'a> {
    fn read(&mut self, id: PageId) -> Result<&Page, PageMiss> {
        // double lookup to satisfy NLL (conditional borrow return)
        if self.pool.get(id).is_some() {
            Ok(self.pool.peek(id).unwrap())
        } else {
            Err(PageMiss(id))
        }
    }

    fn write(
        &mut self,
        id: PageId,
        f: &mut dyn FnMut(&mut PageEditor<'_>),
    ) -> Result<(), PageMiss> {
        let Some(page) = self.pool.get_mut(id) else {
            return Err(PageMiss(id));
        };
        let mut patches = Vec::new();
        {
            let mut editor = PageEditor::new(page, &mut patches);
            f(&mut editor);
        }
        if !patches.is_empty() {
            self.bodies.push(RecordBody::PageWrite {
                page: id,
                patches: patches
                    .into_iter()
                    .map(|(offset, before, after)| Patch {
                        offset,
                        before: Bytes::from(before),
                        after: Bytes::from(after),
                    })
                    .collect(),
            });
        }
        Ok(())
    }

    fn allocate(&mut self) -> Result<PageId, PageMiss> {
        // Allocator state lives in the meta page (page 0) so that recovery
        // finds it; the new page is formatted through the log.
        let off = crate::btree::OFF_META_NEXT_FREE;
        let next = {
            let meta = self.pool.get(PageId(0)).ok_or(PageMiss(PageId(0)))?;
            let stored = u64::from_le_bytes(meta.bytes()[off..off + 8].try_into().unwrap());
            stored.max(1)
        };
        let id = PageId(next);
        self.write(PageId(0), &mut |e| {
            e.set_u64(off, next + 1);
        })?;
        self.bodies.push(RecordBody::PageFormat {
            page: id,
            init: Bytes::new(),
        });
        // make the fresh page resident without evicting (eviction mid-op
        // could pull a page out from under the B+-tree)
        self.pool.insert_unchecked(id, Page::new());
        Ok(id)
    }
}

/// Pad or truncate a client value to the fixed row size.
pub fn fit_row(v: &[u8], row_size: usize) -> Vec<u8> {
    let mut row = vec![0u8; row_size];
    let n = v.len().min(row_size);
    row[..n].copy_from_slice(&v[..n]);
    row
}

/// The row change a write statement makes.
pub enum RowChange {
    Insert(Vec<u8>),
    Update(Vec<u8>),
    Delete,
}

/// Plan write statement `op` against its row's current value `old`: the
/// row change (client values fitted to `row_size`) and the logical inverse
/// to log as undo, or why the statement aborts.
pub fn plan_write(
    op: &Op,
    old: Option<Vec<u8>>,
    row_size: usize,
) -> Result<(RowChange, Op), String> {
    let key = op.write_key().expect("write op");
    match (op, old) {
        (Op::Insert(_, v) | Op::Upsert(_, v), None) => {
            Ok((RowChange::Insert(fit_row(v, row_size)), Op::Delete(key)))
        }
        (Op::Insert(..), Some(_)) => Err(format!("duplicate key {key}")),
        (Op::Update(_, v) | Op::Upsert(_, v), Some(old)) => Ok((
            RowChange::Update(fit_row(v, row_size)),
            Op::Update(key, old),
        )),
        (Op::Update(..) | Op::Delete(_), None) => Err(format!("key {key} not found")),
        (Op::Delete(_), Some(old)) => Ok((RowChange::Delete, Op::Insert(key, old))),
        (Op::Get(_) | Op::Scan(..), _) => unreachable!("reads are not writes"),
    }
}

/// Deterministic bootstrap row content.
pub fn bootstrap_row(key: u64, row_size: usize) -> Vec<u8> {
    let mut row = vec![0u8; row_size];
    row[..8].copy_from_slice(&key.to_le_bytes());
    row[8..16].copy_from_slice(&key.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes());
    row
}

/// Encode the logical inverse `op` of a change by `txn` as the payload of
/// a [`RecordBody::Undo`]: txn id (8 bytes LE), op tag (0 insert,
/// 1 update, 2 delete), key (8 bytes LE), then the row for insert/update.
pub fn encode_undo(txn: TxnId, op: &Op) -> Bytes {
    let (tag, key, row): (u8, u64, &[u8]) = match op {
        Op::Insert(k, v) => (0, *k, v),
        Op::Update(k, v) => (1, *k, v),
        Op::Delete(k) => (2, *k, &[]),
        _ => unreachable!("only write inverses are encoded"),
    };
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&txn.0.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(row);
    Bytes::from(out)
}

/// Decode an [`encode_undo`] payload; `None` if it is malformed.
pub fn decode_undo(data: &[u8]) -> Option<(TxnId, Op)> {
    if data.len() < 17 {
        return None;
    }
    let txn = TxnId(u64::from_le_bytes(data[0..8].try_into().ok()?));
    let tag = data[8];
    let k = u64::from_le_bytes(data[9..17].try_into().ok()?);
    let op = match tag {
        0 => Op::Insert(k, data[17..].to_vec()),
        1 => Op::Update(k, data[17..].to_vec()),
        2 => Op::Delete(k),
        _ => return None,
    };
    Some((txn, op))
}

/// Charge `cost` of processor time on the earliest-free of an instance's
/// vCPUs (each entry is when that vCPU frees up) and fire timer `tag` when
/// the slice ends.
pub fn schedule_cpu(ctx: &mut Ctx<'_>, vcpu_free: &mut [SimTime], cost: SimDuration, tag: Tag) {
    let now = ctx.now();
    let free = vcpu_free
        .iter_mut()
        .min_by_key(|t| **t)
        .expect("an instance has vCPUs");
    *free = (*free).max(now) + cost;
    ctx.set_timer(*free - now, tag);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undo_codec_roundtrip() {
        for op in [
            Op::Insert(42, vec![1, 2, 3]),
            Op::Update(7, vec![9; 16]),
            Op::Delete(u64::MAX),
        ] {
            let data = encode_undo(TxnId(99), &op);
            let (txn, back) = decode_undo(&data).expect("decodes");
            assert_eq!(txn, TxnId(99));
            assert_eq!(back, op);
        }
    }

    #[test]
    fn undo_codec_rejects_short_input() {
        assert!(decode_undo(&[]).is_none());
        assert!(decode_undo(&[0u8; 8]).is_none());
        assert!(decode_undo(&[0u8; 16]).is_none());
    }

    #[test]
    fn undo_codec_rejects_bad_tag() {
        let mut data = encode_undo(TxnId(1), &Op::Delete(5)).to_vec();
        data[8] = 99;
        assert!(decode_undo(&data).is_none());
    }

    #[test]
    fn bootstrap_rows_are_deterministic_and_key_tagged() {
        let a = bootstrap_row(123, 96);
        let b = bootstrap_row(123, 96);
        assert_eq!(a, b);
        assert_eq!(&a[..8], &123u64.to_le_bytes());
        assert_ne!(bootstrap_row(124, 96), a);
        assert_eq!(a.len(), 96);
    }

    #[test]
    fn fit_row_pads_and_truncates() {
        assert_eq!(fit_row(b"ab", 4), vec![b'a', b'b', 0, 0]);
        assert_eq!(fit_row(b"abcdef", 4), b"abcd".to_vec());
    }
}
