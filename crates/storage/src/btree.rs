//! A page-backed B+-tree keyed by `u64` with variable-length values.
//!
//! Used for the `VIDEO_STORE` and `KEY_FRAMES` primary keys and the
//! `(v_id, i_id)` secondary index. Leaves are chained for range scans.
//!
//! Node layout (one page per node):
//!
//! ```text
//! leaf:     tag=1 u8 | count u16 | next_leaf u32 | (key u64, len u16, bytes)*
//! internal: tag=2 u8 | count u16 | unused   u32 | child0 u32 | (key u64, child u32)*
//! ```
//!
//! Values are capped at [`MAX_VALUE_LEN`]; larger payloads belong in the
//! blob heap (the table layer spills automatically). Deletion is *lazy*:
//! nodes are not rebalanced or reclaimed on underflow — correct, simple,
//! and adequate for the workload (the paper's system only deletes whole
//! videos, which are rare administrative events). The space cost is
//! bounded by the high-water mark of the tree.

use crate::backend::Backend;
use crate::codec::{Reader, Writer};
use crate::error::{Result, StorageError};
use crate::page::{PageId, NO_PAGE, PAGE_SIZE};
use crate::pager::Pager;

/// Maximum value size storable inline in a leaf.
pub const MAX_VALUE_LEN: usize = 2048;

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;
const HEADER_LEN: usize = 7; // tag + count + next/unused

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        next: PageId,
        cells: Vec<(u64, Vec<u8>)>,
    },
    Internal {
        keys: Vec<u64>,
        children: Vec<PageId>,
    },
}

impl Node {
    fn serialized_len(&self) -> usize {
        match self {
            Node::Leaf { cells, .. } => {
                HEADER_LEN + cells.iter().map(|(_, v)| 8 + 2 + v.len()).sum::<usize>()
            }
            Node::Internal { keys, .. } => HEADER_LEN + 4 + keys.len() * 12,
        }
    }

    fn overflows(&self) -> bool {
        self.serialized_len() > PAGE_SIZE
    }
}

fn read_node<B: Backend>(pager: &mut Pager<B>, id: PageId) -> Result<Node> {
    let page = pager.read_page(id)?;
    let mut r = Reader::new(page.as_bytes());
    let tag = r.u8()?;
    let count = r.u16()? as usize;
    let next = r.u32()?;
    match tag {
        TAG_LEAF => {
            let mut cells = Vec::with_capacity(count);
            for _ in 0..count {
                let key = r.u64()?;
                let len = r.u16()? as usize;
                cells.push((key, r.take(len)?.to_vec()));
            }
            Ok(Node::Leaf { next, cells })
        }
        TAG_INTERNAL => {
            let mut children = Vec::with_capacity(count + 1);
            children.push(r.u32()?);
            let mut keys = Vec::with_capacity(count);
            for _ in 0..count {
                keys.push(r.u64()?);
                children.push(r.u32()?);
            }
            Ok(Node::Internal { keys, children })
        }
        other => Err(StorageError::Corruption(format!(
            "page {id}: bad node tag {other}"
        ))),
    }
}

fn write_node<B: Backend>(pager: &mut Pager<B>, id: PageId, node: &Node) -> Result<()> {
    debug_assert!(!node.overflows(), "caller must split before writing");
    let mut w = Writer::with_capacity(PAGE_SIZE);
    match node {
        Node::Leaf { next, cells } => {
            w.u8(TAG_LEAF).u16(cells.len() as u16).u32(*next);
            for (key, value) in cells {
                w.u64(*key).u16(value.len() as u16).raw(value);
            }
        }
        Node::Internal { keys, children } => {
            w.u8(TAG_INTERNAL)
                .u16(keys.len() as u16)
                .u32(0)
                .u32(children[0]);
            for (key, child) in keys.iter().zip(&children[1..]) {
                w.u64(*key).u32(*child);
            }
        }
    }
    pager.write_page(id, w.into_page()?)
}

/// A B+-tree rooted at a page. The root id changes on root splits; the
/// owner must persist [`BTree::root`] (the database keeps it in user
/// meta).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTree {
    root: PageId,
}

/// Outcome of a child insert that split.
struct Split {
    separator: u64,
    right: PageId,
}

impl BTree {
    /// Allocate an empty tree (a single empty leaf).
    pub fn create<B: Backend>(pager: &mut Pager<B>) -> Result<BTree> {
        let root = pager.allocate()?;
        write_node(
            pager,
            root,
            &Node::Leaf {
                next: NO_PAGE,
                cells: Vec::new(),
            },
        )?;
        Ok(BTree { root })
    }

    /// Attach to an existing tree.
    pub fn load(root: PageId) -> BTree {
        BTree { root }
    }

    /// Current root page.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Look up a key.
    pub fn get<B: Backend>(&self, pager: &mut Pager<B>, key: u64) -> Result<Option<Vec<u8>>> {
        let mut id = self.root;
        loop {
            match read_node(pager, id)? {
                Node::Leaf { cells, .. } => {
                    return Ok(cells
                        .binary_search_by_key(&key, |(k, _)| *k)
                        .ok()
                        .map(|i| cells[i].1.clone()));
                }
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    id = children[idx];
                }
            }
        }
    }

    /// True when the key is present.
    pub fn contains<B: Backend>(&self, pager: &mut Pager<B>, key: u64) -> Result<bool> {
        Ok(self.get(pager, key)?.is_some())
    }

    /// Insert a new key.
    ///
    /// # Errors
    /// [`StorageError::Duplicate`] when the key exists,
    /// [`StorageError::TooLarge`] when the value exceeds [`MAX_VALUE_LEN`].
    pub fn insert<B: Backend>(
        &mut self,
        pager: &mut Pager<B>,
        key: u64,
        value: &[u8],
    ) -> Result<()> {
        self.put(pager, key, value, false)
    }

    /// Insert or overwrite a key.
    pub fn upsert<B: Backend>(
        &mut self,
        pager: &mut Pager<B>,
        key: u64,
        value: &[u8],
    ) -> Result<()> {
        self.put(pager, key, value, true)
    }

    fn put<B: Backend>(
        &mut self,
        pager: &mut Pager<B>,
        key: u64,
        value: &[u8],
        overwrite: bool,
    ) -> Result<()> {
        if value.len() > MAX_VALUE_LEN {
            return Err(StorageError::TooLarge {
                what: "btree value",
                size: value.len(),
                limit: MAX_VALUE_LEN,
            });
        }
        if let Some(split) = self.put_rec(pager, self.root, key, value, overwrite)? {
            // Grow a new root.
            let new_root = pager.allocate()?;
            write_node(
                pager,
                new_root,
                &Node::Internal {
                    keys: vec![split.separator],
                    children: vec![self.root, split.right],
                },
            )?;
            self.root = new_root;
        }
        Ok(())
    }

    fn put_rec<B: Backend>(
        &mut self,
        pager: &mut Pager<B>,
        id: PageId,
        key: u64,
        value: &[u8],
        overwrite: bool,
    ) -> Result<Option<Split>> {
        match read_node(pager, id)? {
            Node::Leaf { next, mut cells } => {
                match cells.binary_search_by_key(&key, |(k, _)| *k) {
                    Ok(i) => {
                        if !overwrite {
                            return Err(StorageError::Duplicate(key));
                        }
                        cells[i].1 = value.to_vec();
                    }
                    Err(i) => cells.insert(i, (key, value.to_vec())),
                }
                let node = Node::Leaf { next, cells };
                if !node.overflows() {
                    write_node(pager, id, &node)?;
                    return Ok(None);
                }
                // Split the leaf near the byte midpoint, keeping at least
                // one cell on each side.
                let Node::Leaf { next, cells } = node else {
                    unreachable!()
                };
                let total: usize = cells.iter().map(|(_, v)| 10 + v.len()).sum();
                let mut acc = 0usize;
                let mut cut = cells.len() / 2; // fallback
                for (i, (_, v)) in cells.iter().enumerate() {
                    acc += 10 + v.len();
                    if acc >= total / 2 {
                        cut = (i + 1).clamp(1, cells.len() - 1);
                        break;
                    }
                }
                let right_cells: Vec<_> = cells[cut..].to_vec();
                let left_cells: Vec<_> = cells[..cut].to_vec();
                let right_id = pager.allocate()?;
                let separator = right_cells[0].0;
                write_node(
                    pager,
                    right_id,
                    &Node::Leaf {
                        next,
                        cells: right_cells,
                    },
                )?;
                write_node(
                    pager,
                    id,
                    &Node::Leaf {
                        next: right_id,
                        cells: left_cells,
                    },
                )?;
                Ok(Some(Split {
                    separator,
                    right: right_id,
                }))
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|&k| k <= key);
                let child = children[idx];
                let Some(split) = self.put_rec(pager, child, key, value, overwrite)? else {
                    return Ok(None);
                };
                keys.insert(idx, split.separator);
                children.insert(idx + 1, split.right);
                let node = Node::Internal { keys, children };
                if !node.overflows() {
                    write_node(pager, id, &node)?;
                    return Ok(None);
                }
                let Node::Internal {
                    mut keys,
                    mut children,
                } = node
                else {
                    unreachable!()
                };
                let mid = keys.len() / 2;
                let up_key = keys[mid];
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // up_key moves up, not right
                let right_children = children.split_off(mid + 1);
                let right_id = pager.allocate()?;
                write_node(
                    pager,
                    right_id,
                    &Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    },
                )?;
                write_node(pager, id, &Node::Internal { keys, children })?;
                Ok(Some(Split {
                    separator: up_key,
                    right: right_id,
                }))
            }
        }
    }

    /// Remove a key; returns whether it was present. Lazy: no rebalancing.
    pub fn delete<B: Backend>(&mut self, pager: &mut Pager<B>, key: u64) -> Result<bool> {
        let mut id = self.root;
        loop {
            match read_node(pager, id)? {
                Node::Leaf { next, mut cells } => {
                    return match cells.binary_search_by_key(&key, |(k, _)| *k) {
                        Ok(i) => {
                            cells.remove(i);
                            write_node(pager, id, &Node::Leaf { next, cells })?;
                            Ok(true)
                        }
                        Err(_) => Ok(false),
                    };
                }
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    id = children[idx];
                }
            }
        }
    }

    /// Visit entries with `key >= start` in ascending order until the
    /// visitor returns `false`.
    pub fn scan_from<B: Backend>(
        &self,
        pager: &mut Pager<B>,
        start: u64,
        mut visit: impl FnMut(u64, &[u8]) -> bool,
    ) -> Result<()> {
        // Descend to the leaf containing `start`.
        let mut id = self.root;
        while let Node::Internal { keys, children } = read_node(pager, id)? {
            let idx = keys.partition_point(|&k| k <= start);
            id = children[idx];
        }
        // Walk the leaf chain.
        #[allow(clippy::while_let_loop)] // the else-branch is an error, not a break
        loop {
            let Node::Leaf { next, cells } = read_node(pager, id)? else {
                return Err(StorageError::Corruption(format!(
                    "page {id}: expected leaf in chain"
                )));
            };
            for (k, v) in &cells {
                if *k < start {
                    continue;
                }
                if !visit(*k, v) {
                    return Ok(());
                }
            }
            if next == NO_PAGE {
                return Ok(());
            }
            id = next;
        }
    }

    /// Collect all entries (test/diagnostic helper).
    pub fn collect_all<B: Backend>(&self, pager: &mut Pager<B>) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan_from(pager, 0, |k, v| {
            out.push((k, v.to_vec()));
            true
        })?;
        Ok(out)
    }

    /// Number of entries (walks the leaf chain).
    pub fn len<B: Backend>(&self, pager: &mut Pager<B>) -> Result<usize> {
        let mut n = 0usize;
        self.scan_from(pager, 0, |_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn fresh() -> (Pager<MemBackend>, BTree) {
        let mut pager = Pager::open(MemBackend::new(), MemBackend::new(), 256).unwrap();
        let tree = BTree::create(&mut pager).unwrap();
        (pager, tree)
    }

    #[test]
    fn insert_get_small() {
        let (mut pager, mut tree) = fresh();
        tree.insert(&mut pager, 5, b"five").unwrap();
        tree.insert(&mut pager, 3, b"three").unwrap();
        tree.insert(&mut pager, 9, b"nine").unwrap();
        assert_eq!(tree.get(&mut pager, 5).unwrap().unwrap(), b"five");
        assert_eq!(tree.get(&mut pager, 3).unwrap().unwrap(), b"three");
        assert!(tree.get(&mut pager, 4).unwrap().is_none());
        assert!(tree.contains(&mut pager, 9).unwrap());
    }

    #[test]
    fn duplicate_insert_rejected_upsert_allowed() {
        let (mut pager, mut tree) = fresh();
        tree.insert(&mut pager, 1, b"a").unwrap();
        assert!(matches!(
            tree.insert(&mut pager, 1, b"b"),
            Err(StorageError::Duplicate(1))
        ));
        tree.upsert(&mut pager, 1, b"b").unwrap();
        assert_eq!(tree.get(&mut pager, 1).unwrap().unwrap(), b"b");
    }

    #[test]
    fn oversized_value_rejected() {
        let (mut pager, mut tree) = fresh();
        let big = vec![0u8; MAX_VALUE_LEN + 1];
        assert!(matches!(
            tree.insert(&mut pager, 1, &big),
            Err(StorageError::TooLarge { .. })
        ));
        // Exactly at the limit is fine.
        tree.insert(&mut pager, 1, &vec![7u8; MAX_VALUE_LEN])
            .unwrap();
    }

    #[test]
    fn thousand_inserts_sorted_scan() {
        let (mut pager, mut tree) = fresh();
        // Insert in a scrambled order.
        let mut keys: Vec<u64> = (0..1000).collect();
        let mut s = 0x12345678u64;
        for i in (1..keys.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            keys.swap(i, (s % (i as u64 + 1)) as usize);
        }
        for &k in &keys {
            tree.insert(&mut pager, k, format!("value-{k}").as_bytes())
                .unwrap();
        }
        let all = tree.collect_all(&mut pager).unwrap();
        assert_eq!(all.len(), 1000);
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(*k, i as u64);
            assert_eq!(v, format!("value-{i}").as_bytes());
        }
        assert_eq!(tree.len(&mut pager).unwrap(), 1000);
    }

    #[test]
    fn large_values_force_deep_splits() {
        let (mut pager, mut tree) = fresh();
        let value = vec![0xAB; 1500]; // ~2 values per leaf
        for k in 0..200u64 {
            tree.insert(&mut pager, k, &value).unwrap();
        }
        for k in 0..200u64 {
            assert_eq!(
                tree.get(&mut pager, k).unwrap().unwrap().len(),
                1500,
                "key {k}"
            );
        }
    }

    #[test]
    fn scan_from_midpoint() {
        let (mut pager, mut tree) = fresh();
        for k in (0..100u64).map(|x| x * 2) {
            tree.insert(&mut pager, k, &k.to_le_bytes()).unwrap();
        }
        let mut seen = Vec::new();
        tree.scan_from(&mut pager, 51, |k, _| {
            seen.push(k);
            seen.len() < 5
        })
        .unwrap();
        assert_eq!(seen, vec![52, 54, 56, 58, 60]);
    }

    #[test]
    fn delete_and_reinsert() {
        let (mut pager, mut tree) = fresh();
        for k in 0..500u64 {
            tree.insert(&mut pager, k, b"x").unwrap();
        }
        for k in (0..500u64).step_by(2) {
            assert!(tree.delete(&mut pager, k).unwrap());
        }
        assert!(!tree.delete(&mut pager, 0).unwrap(), "already gone");
        assert_eq!(tree.len(&mut pager).unwrap(), 250);
        for k in (0..500u64).step_by(2) {
            assert!(tree.get(&mut pager, k).unwrap().is_none());
            tree.insert(&mut pager, k, b"y").unwrap();
        }
        assert_eq!(tree.len(&mut pager).unwrap(), 500);
        assert_eq!(tree.get(&mut pager, 4).unwrap().unwrap(), b"y");
        assert_eq!(tree.get(&mut pager, 5).unwrap().unwrap(), b"x");
    }

    #[test]
    fn matches_btreemap_model() {
        use std::collections::BTreeMap;
        let (mut pager, mut tree) = fresh();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut s = 99u64;
        for step in 0..3000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let key = s % 500;
            match step % 3 {
                0 | 1 => {
                    let val = vec![(s % 251) as u8; (s % 64) as usize + 1];
                    tree.upsert(&mut pager, key, &val).unwrap();
                    model.insert(key, val);
                }
                _ => {
                    let expect = model.remove(&key).is_some();
                    assert_eq!(tree.delete(&mut pager, key).unwrap(), expect);
                }
            }
        }
        let all = tree.collect_all(&mut pager).unwrap();
        let model_all: Vec<(u64, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(all, model_all);
    }

    #[test]
    fn survives_commit_and_reload() {
        let data = MemBackend::new();
        let wal = MemBackend::new();
        let root;
        {
            let mut pager = Pager::open(data.share(), wal.share(), 64).unwrap();
            let mut tree = BTree::create(&mut pager).unwrap();
            for k in 0..300u64 {
                tree.insert(&mut pager, k, format!("v{k}").as_bytes())
                    .unwrap();
            }
            root = tree.root();
            pager.commit().unwrap();
        }
        let mut pager = Pager::open(data.share(), wal.share(), 64).unwrap();
        let tree = BTree::load(root);
        assert_eq!(tree.len(&mut pager).unwrap(), 300);
        assert_eq!(tree.get(&mut pager, 123).unwrap().unwrap(), b"v123");
    }
}
