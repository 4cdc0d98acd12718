//! Deterministic seeded byte-fuzz smoke over every parser that eats
//! untrusted bytes: the HTTP/1.1 request reader, the SRWIRE1 primitive
//! reader, the SRCKPT1 checkpoint decoder, the SREMB1 embedding-store
//! decoder, and the JSONL journal validator. Each target is fed seeded
//! mutations (truncate, bit-flip, splice, garbage overwrite, pure noise)
//! of a healthy corpus and must refuse corrupt input with an error — never
//! a panic, and never an allocation spree driven by an attacker-controlled
//! length field.
//!
//! A counting `#[global_allocator]` (the `alloc_count` idiom from the
//! tensor crate) enforces the allocation bound per mutation; the test
//! binary owns the process, which the global allocator requires anyway.
//!
//! `SITEREC_FUZZ_ITERS` scales the per-corpus mutation count (default 200;
//! `ci.sh` runs a deeper sweep in release).

use siterec_obs as obs;
use siterec_serve::{http, EmbeddingStore, Recipe};
use siterec_tensor::checkpoint::{self, ByteReader, ByteWriter, CheckpointPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Per-mutation allocation ceiling. Healthy inputs decode well under this;
/// a corrupt length field that still drives a giant `with_capacity` blows
/// straight past it.
const ALLOC_BOUND: u64 = 256 << 20;

/// One seeded mutation of `base`: truncate, bit-flip, splice, garbage
/// overwrite, or pure noise.
fn mutate(base: &[u8], rng: &mut u64) -> Vec<u8> {
    let mut b = base.to_vec();
    match obs::splitmix64_next(rng) % 5 {
        0 => {
            // Truncate at a random point (torn write / short read).
            let at = (obs::splitmix64_next(rng) as usize) % (b.len() + 1);
            b.truncate(at);
        }
        1 => {
            // Flip 1–8 random bits (bit rot).
            for _ in 0..=(obs::splitmix64_next(rng) % 8) {
                if b.is_empty() {
                    break;
                }
                let i = (obs::splitmix64_next(rng) as usize) % b.len();
                b[i] ^= 1 << (obs::splitmix64_next(rng) % 8);
            }
        }
        2 => {
            // Splice a random self-range over another position (misordered
            // pages): shifts every downstream length field.
            if b.len() >= 2 {
                let src = (obs::splitmix64_next(rng) as usize) % b.len();
                let dst = (obs::splitmix64_next(rng) as usize) % b.len();
                let len = ((obs::splitmix64_next(rng) as usize) % 64).min(b.len() - src.max(dst));
                let chunk = b[src..src + len].to_vec();
                b[dst..dst + len].copy_from_slice(&chunk);
            }
        }
        3 => {
            // Overwrite a random range with garbage (firmware lies). Length
            // fields turn into attacker-controlled giants here.
            if !b.is_empty() {
                let at = (obs::splitmix64_next(rng) as usize) % b.len();
                let len = ((obs::splitmix64_next(rng) as usize) % 32).min(b.len() - at);
                for x in &mut b[at..at + len] {
                    *x = (obs::splitmix64_next(rng) & 0xff) as u8;
                }
            }
        }
        _ => {
            // Pure noise of a random small size.
            let len = (obs::splitmix64_next(rng) as usize) % 512;
            b = (0..len)
                .map(|_| (obs::splitmix64_next(rng) & 0xff) as u8)
                .collect();
        }
    }
    b
}

/// Run `target` over `iters` seeded mutations of `base`, asserting the
/// allocation bound on every call. Panics inside `target` fail the test —
/// that is the point.
fn fuzz(name: &str, base: &[u8], seed: u64, iters: usize, target: impl Fn(&[u8])) {
    let mut rng = seed;
    for i in 0..iters {
        let input = mutate(base, &mut rng);
        let before = ALLOC_BYTES.load(Ordering::Relaxed);
        target(&input);
        let delta = ALLOC_BYTES.load(Ordering::Relaxed) - before;
        assert!(
            delta < ALLOC_BOUND,
            "{name}: mutation {i} (seed {seed}) drove {delta} bytes of allocation"
        );
    }
    // The pristine corpus must still satisfy the same bound.
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    target(base);
    assert!(ALLOC_BYTES.load(Ordering::Relaxed) - before < ALLOC_BOUND);
}

#[test]
fn corrupt_bytes_never_panic_or_balloon() {
    obs::reset();
    obs::set_enabled(true);
    obs::failpoint::disarm();
    let iters: usize = std::env::var("SITEREC_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);

    // Healthy corpora: a real checkpoint, a real embedding-store image, a
    // real wire buffer, a canned HTTP request, and the journal this very
    // training run produced.
    let dir = std::env::temp_dir().join(format!("siterec_fuzz_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let recipe: Recipe = "tiny:11".parse().unwrap();
    let mut model = recipe.build_model(1);
    model
        .try_train_resumable(&CheckpointPolicy::new(&dir))
        .expect("train one epoch");
    let ckpt_path = std::fs::read_dir(&dir)
        .expect("ckpt dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "srckpt"))
        .or_else(|| {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .find(|p| p.is_file())
        })
        .expect("a checkpoint file");
    let ckpt_bytes = std::fs::read(&ckpt_path).expect("read checkpoint");
    let store_bytes = EmbeddingStore::new(model.export_serving()).encode();
    let wire_bytes = {
        let mut w = ByteWriter::new();
        w.u32(0x5752_4C31);
        w.str("corpus");
        w.usize(3);
        w.tensor(&siterec_tensor::Tensor::zeros(4, 3));
        w.opt_usize(Some(7));
        w.bytes(&[1, 2, 3, 4]);
        w.into_bytes()
    };
    let http_bytes = b"POST /v1/score HTTP/1.1\r\nHost: fuzz\r\nX-Request-Id: abc\r\nContent-Length: 24\r\n\r\n{\"region\":1,\"type\":2}\n".to_vec();
    let journal_text = obs::journal_to_string();
    assert!(
        !journal_text.is_empty(),
        "training must have journaled something to fuzz"
    );

    fuzz("srckpt1", &ckpt_bytes, 0xC4_17, iters, |b| {
        let _ = checkpoint::decode_state(b);
    });
    fuzz("sremb1", &store_bytes, 0xE7_B1, iters, |b| {
        let _ = EmbeddingStore::decode(b);
    });
    fuzz("wire", &wire_bytes, 0x31_7E, iters, |b| {
        let mut r = ByteReader::new(b);
        // Walk the same field sequence the writer produced; every step may
        // legitimately error, but none may panic.
        let _ = r.u32();
        let _ = r.str();
        let _ = r.usize();
        let _ = r.tensor();
        let _ = r.opt_usize();
        let _ = r.bytes();
        let _ = r.finish();
    });
    fuzz("http", &http_bytes, 0x47_7B, iters, |b| {
        let mut reader = BufReader::new(b);
        // Drain the whole connection: keep-alive inputs carry several
        // requests per buffer.
        while let Ok(Some(_)) = http::read_request(&mut reader) {}
    });
    fuzz("journal", journal_text.as_bytes(), 0x10_09, iters, |b| {
        let _ = obs::validate_journal(&String::from_utf8_lossy(b));
    });

    let _ = std::fs::remove_dir_all(&dir);
    obs::reset();
    obs::set_enabled(false);
}
