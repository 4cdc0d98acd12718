//! The in-memory embedding store and its `SREMB1` on-disk image.
//!
//! A store is the serving-side half of the model: the five per-period node
//! embedding matrices (`h` for store-region nodes, `q` for type nodes,
//! steps 1–3 of the paper's Fig. 9 evaluated once, offline) plus the
//! scoring-tail weights (time semantics-level attention and the prediction
//! layer, steps 4–5). Scoring a query replays exactly the tape ops of
//! [`siterec_core::O2SiteRec::predict`]'s tail over these constants, which
//! is what makes online scores raw-`f32`-bit-identical to offline inference.
//!
//! # `SREMB1` image format
//!
//! The store serializes to a versioned, CRC32-checksummed binary image in
//! the house checkpoint style (named sections, every payload checksummed),
//! written atomically via [`siterec_obs::atomic_write`]:
//!
//! ```text
//! magic    8  b"SREMB1\0\0"
//! version  4  u32 le = 1
//! sections 4  u32 le count
//! then per section:
//!   name     str   ("meta" | "map" | "emb" | "tail")
//!   len      u64   payload byte length
//!   crc32    u32   CRC32 (IEEE) over the payload bytes
//!   payload  len bytes
//! ```
//!
//! All floats are raw IEEE-754 bits, so a write → read round-trip scores
//! bit-identically to the in-memory store it came from.

use siterec_core::{gather_period_pairs, score_tail, ServingExport, TailSpec, TailVars};
use siterec_geo::Period;
use siterec_tensor::checkpoint::{crc32, ByteReader, ByteWriter};
use siterec_tensor::{Graph, Index, Tensor};
use std::fmt;
use std::io;
use std::path::Path;

/// Image file magic: the first eight bytes of every `SREMB1` image.
pub const IMAGE_MAGIC: &[u8; 8] = b"SREMB1\0\0";

/// Current image format version.
pub const IMAGE_VERSION: u32 = 1;

/// One score query: a candidate region, a store type, and an optional
/// time-period restriction (`None` scores the paper's all-period
/// aggregation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    /// Candidate region index.
    pub region: usize,
    /// Store type index.
    pub ty: usize,
    /// Restrict scoring to one period; `None` attends over all five.
    pub period: Option<Period>,
}

impl Query {
    /// Dense period-selector index: `0..5` for a single period, `5` for the
    /// all-period aggregation. Queries with equal selectors share one scoring
    /// graph (their tails have the same shape).
    pub fn selector(&self) -> usize {
        self.period.map_or(Period::COUNT, |p| p.index())
    }
}

/// A failure loading or decoding an embedding-store image.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error.
    Io(io::Error),
    /// The image fails magic/version/CRC/structure checks.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "embedding image i/o error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt embedding image: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// The compact in-memory embedding store scored against by the server.
///
/// Built either from a live model ([`ServingExport`]) or from an on-disk
/// [`SREMB1` image](self); both routes hold identical bits and therefore
/// produce identical scores.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    export: ServingExport,
}

impl EmbeddingStore {
    /// Wrap a model's serving export.
    pub fn new(export: ServingExport) -> EmbeddingStore {
        assert_eq!(export.h.len(), Period::COUNT, "expected 5 h matrices");
        assert_eq!(export.q.len(), Period::COUNT, "expected 5 q matrices");
        EmbeddingStore { export }
    }

    /// Model name recorded in the export (`"O2-SiteRec"`).
    pub fn model(&self) -> &str {
        &self.export.model
    }

    /// Training seed behind the embeddings.
    pub fn seed(&self) -> u64 {
        self.export.seed
    }

    /// Committed training epochs behind the embeddings (the staleness
    /// handle: a reload is worthwhile when the checkpoint has moved past
    /// this).
    pub fn trained_epochs(&self) -> usize {
        self.export.trained_epochs
    }

    /// Number of candidate regions (valid `region` query range).
    pub fn n_regions(&self) -> usize {
        self.export.s_of_region.len()
    }

    /// Number of store types (valid `type` query range).
    pub fn n_types(&self) -> usize {
        self.export.n_types
    }

    /// Bytes held by the embedding and tail tensors (capacity-planning
    /// figure surfaced in `/healthz`).
    pub fn tensor_bytes(&self) -> usize {
        let t = |t: &Tensor| t.len() * std::mem::size_of::<f32>();
        self.export.h.iter().map(&t).sum::<usize>()
            + self.export.q.iter().map(&t).sum::<usize>()
            + t(&self.export.wk)
            + t(&self.export.wq)
            + t(&self.export.pred_w)
            + t(&self.export.pred_b)
    }

    fn tail_spec(&self) -> TailSpec {
        TailSpec {
            d2: self.export.d2,
            time_heads: self.export.time_heads,
            mean_pool: self.export.mean_pool,
        }
    }

    /// Score a batch of queries, in order. Regions that host no stores score
    /// 0, exactly as offline [`siterec_core::O2SiteRec::predict`].
    ///
    /// Queries are grouped by period selector; every group replays the
    /// offline scoring-tail ops ([`gather_period_pairs`] + [`score_tail`])
    /// over the queried rows of the stored tables. All tail ops are row-independent with a
    /// fixed accumulation order, so the returned bits do not depend on batch
    /// composition, batch order, or the kernel thread count.
    pub fn score_batch(&self, queries: &[Query]) -> Vec<f32> {
        let mut out = vec![0.0f32; queries.len()];
        // selector -> (output slot, store node, type) per grouped query.
        let mut groups: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); Period::COUNT + 1];
        for (i, q) in queries.iter().enumerate() {
            let node = self.export.s_of_region.get(q.region).copied().flatten();
            if let Some(s) = node {
                assert!(q.ty < self.export.n_types, "type {} out of range", q.ty);
                groups[q.selector()].push((i, s, q.ty));
            }
        }
        for (sel, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let periods: Vec<usize> = if sel == Period::COUNT {
                (0..Period::COUNT).collect()
            } else {
                vec![sel]
            };
            // Only the queried rows enter the tape: each period's table
            // rows are gathered out of the borrowed export, and the tail's
            // own gather then runs over an identity index, so the recorded
            // ops (and bits) are the offline ones.
            let ss: Vec<usize> = group.iter().map(|&(_, s, _)| s).collect();
            let aa: Vec<usize> = group.iter().map(|&(_, _, a)| a).collect();
            let rows = Index::new((0..group.len()).collect(), group.len());
            let mut g = Graph::new();
            g.training = false;
            let hs: Vec<_> = periods
                .iter()
                .map(|&p| g.constant(self.export.h[p].gather_rows(&ss)))
                .collect();
            let qs: Vec<_> = periods
                .iter()
                .map(|&p| g.constant(self.export.q[p].gather_rows(&aa)))
                .collect();
            let w = TailVars {
                wk: g.constant_ref(&self.export.wk),
                wq: g.constant_ref(&self.export.wq),
                pred_w: g.constant_ref(&self.export.pred_w),
                pred_b: g.constant_ref(&self.export.pred_b),
            };
            let per_period = gather_period_pairs(&mut g, &hs, &qs, &rows, &rows);
            let pred = score_tail(&mut g, &self.tail_spec(), &w, &per_period);
            let values = g.value(pred);
            for (j, &(slot, _, _)) in group.iter().enumerate() {
                out[slot] = values.get(j, 0);
            }
        }
        out
    }

    /// Score one query (a one-element [`Self::score_batch`]; same bits).
    pub fn score(&self, query: Query) -> f32 {
        self.score_batch(std::slice::from_ref(&query))[0]
    }

    /// Top-`k` candidate regions for a store type: every region that hosts
    /// stores is scored (optionally period-restricted) and ranked descending
    /// by score, ties broken by ascending region index so the ranking is
    /// total and reproducible. Returns `(region, score)` pairs.
    pub fn top_k(&self, ty: usize, period: Option<Period>, k: usize) -> Vec<(usize, f32)> {
        let queries: Vec<Query> = (0..self.n_regions())
            .filter(|&r| self.export.s_of_region[r].is_some())
            .map(|region| Query { region, ty, period })
            .collect();
        let scores = self.score_batch(&queries);
        let mut ranked: Vec<(usize, f32)> = queries.iter().map(|q| q.region).zip(scores).collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// Encode the store as `SREMB1` image bytes.
    pub fn encode(&self) -> Vec<u8> {
        let e = &self.export;
        let mut meta = ByteWriter::new();
        meta.str(&e.model);
        meta.u64(e.seed);
        meta.usize(e.trained_epochs);
        meta.usize(e.d2);
        meta.usize(e.time_heads);
        meta.u8(e.mean_pool as u8);
        meta.usize(e.n_types);

        let mut map = ByteWriter::new();
        map.usize(e.s_of_region.len());
        for &s in &e.s_of_region {
            map.opt_usize(s);
        }

        let mut emb = ByteWriter::new();
        for t in e.h.iter().chain(e.q.iter()) {
            emb.tensor(t);
        }

        let mut tail = ByteWriter::new();
        tail.tensor(&e.wk);
        tail.tensor(&e.wq);
        tail.tensor(&e.pred_w);
        tail.tensor(&e.pred_b);

        let sections: [(&str, &[u8]); 4] = [
            ("meta", meta.as_bytes()),
            ("map", map.as_bytes()),
            ("emb", emb.as_bytes()),
            ("tail", tail.as_bytes()),
        ];
        let mut out = ByteWriter::new();
        for &b in IMAGE_MAGIC {
            out.u8(b);
        }
        out.u32(IMAGE_VERSION);
        out.u32(sections.len() as u32);
        for (name, payload) in sections {
            out.str(name);
            out.u64(payload.len() as u64);
            out.u32(crc32(payload));
            for &b in payload {
                out.u8(b);
            }
        }
        out.into_bytes()
    }

    /// Decode an image produced by [`Self::encode`], verifying magic,
    /// version, section structure and every per-section CRC32.
    pub fn decode(bytes: &[u8]) -> Result<EmbeddingStore, StoreError> {
        let corrupt = |m: String| StoreError::Corrupt(m);
        let wire = |e: siterec_tensor::checkpoint::ByteDecodeError| StoreError::Corrupt(e.0);
        let mut r = ByteReader::new(bytes);
        if r.take(8).map_err(wire)? != IMAGE_MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let version = r.u32().map_err(wire)?;
        if version != IMAGE_VERSION {
            return Err(corrupt(format!(
                "unsupported version {version} (expected {IMAGE_VERSION})"
            )));
        }
        let n_sections = r.u32().map_err(wire)?;
        let (mut meta, mut map, mut emb, mut tail) = (None, None, None, None);
        for _ in 0..n_sections {
            let name = r.str().map_err(wire)?;
            let len = r.usize().map_err(wire)?;
            let want = r.u32().map_err(wire)?;
            let payload = r.take(len).map_err(wire)?;
            if crc32(payload) != want {
                return Err(corrupt(format!("section {name:?}: CRC mismatch")));
            }
            match name.as_str() {
                "meta" => meta = Some(payload),
                "map" => map = Some(payload),
                "emb" => emb = Some(payload),
                "tail" => tail = Some(payload),
                // Forward compatibility: unknown sections are checksummed
                // and skipped.
                _ => {}
            }
        }
        r.finish().map_err(wire)?;
        let missing = |what: &str| StoreError::Corrupt(format!("missing section {what:?}"));

        let mut mr = ByteReader::new(meta.ok_or_else(|| missing("meta"))?);
        let model = mr.str().map_err(wire)?;
        let seed = mr.u64().map_err(wire)?;
        let trained_epochs = mr.usize().map_err(wire)?;
        let d2 = mr.usize().map_err(wire)?;
        let time_heads = mr.usize().map_err(wire)?;
        let mean_pool = mr.u8().map_err(wire)? != 0;
        let n_types = mr.usize().map_err(wire)?;
        mr.finish().map_err(wire)?;

        let mut pr = ByteReader::new(map.ok_or_else(|| missing("map"))?);
        let n_regions = pr.usize().map_err(wire)?;
        let mut s_of_region = Vec::with_capacity(n_regions.min(1 << 24));
        for _ in 0..n_regions {
            s_of_region.push(pr.opt_usize().map_err(wire)?);
        }
        pr.finish().map_err(wire)?;

        let mut er = ByteReader::new(emb.ok_or_else(|| missing("emb"))?);
        let mut h = Vec::with_capacity(Period::COUNT);
        let mut q = Vec::with_capacity(Period::COUNT);
        for _ in 0..Period::COUNT {
            h.push(er.tensor().map_err(wire)?);
        }
        for _ in 0..Period::COUNT {
            q.push(er.tensor().map_err(wire)?);
        }
        er.finish().map_err(wire)?;

        let mut tr = ByteReader::new(tail.ok_or_else(|| missing("tail"))?);
        let wk = tr.tensor().map_err(wire)?;
        let wq = tr.tensor().map_err(wire)?;
        let pred_w = tr.tensor().map_err(wire)?;
        let pred_b = tr.tensor().map_err(wire)?;
        tr.finish().map_err(wire)?;

        Ok(EmbeddingStore::new(ServingExport {
            model,
            seed,
            trained_epochs,
            d2,
            time_heads,
            mean_pool,
            n_types,
            s_of_region,
            h,
            q,
            wk,
            wq,
            pred_w,
            pred_b,
        }))
    }

    /// Write the image to `path` atomically (temp file + fsync + rename via
    /// [`siterec_obs::atomic_write_fp`]): a crash mid-write never leaves a
    /// torn image. The write sits behind the `emb.image.save` failpoint
    /// seam with bounded deterministic retry, so transient I/O errors heal
    /// in place. Returns the byte count written.
    pub fn write_image(&self, path: &Path) -> io::Result<usize> {
        let bytes = self.encode();
        siterec_obs::retry_io("write_image", siterec_obs::RetryCfg::from_env(), || {
            siterec_obs::atomic_write_fp(path, &bytes, "emb.image.save")
        })?;
        Ok(bytes.len())
    }

    /// Read and decode an image written by [`Self::write_image`]. The read
    /// passes the `emb.image.load` failpoint seam; injected short/corrupt
    /// damage is caught by the per-section CRC checks in `decode`.
    pub fn read_image(path: &Path) -> Result<EmbeddingStore, StoreError> {
        let mut bytes = std::fs::read(path)?;
        siterec_obs::read_fault("emb.image.load", &mut bytes)?;
        EmbeddingStore::decode(&bytes)
    }
}
