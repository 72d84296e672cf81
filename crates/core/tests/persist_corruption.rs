//! Round-trip corruption tests for the persisted index.
//!
//! Each test saves a valid index, performs targeted byte surgery on one
//! payload field — producing a file that is *length-valid* (every frame
//! and length prefix still consistent) but violates a structural or
//! numerical invariant — and asserts that [`Bear::load`] rejects it with
//! [`Error::CorruptIndex`] under **default features**. This pins the
//! trust boundary: the loader must route every array through the
//! `try_from_parts` constructors rather than trusting bytes that merely
//! parse.
//!
//! The format checksums every spoke segment, every resident section and
//! the resident region as a whole, so naive surgery would be caught by
//! the CRCs before the structural validators ever ran. To keep
//! exercising the deeper layer, each corrupted image has its whole
//! checksum chain *re-fixed* ([`fix_checksums_v3`]) before loading —
//! simulating an adversarial or wrote-garbage-honestly artifact whose
//! integrity envelope is intact but whose content is wrong. (Checksum
//! violations themselves are covered by `crash_injection.rs`.)
//!
//! The byte walkers below mirror the `BEARIDX3` layout written by
//! `Bear::save`: magic(8), one `SPKB` frame per spoke block
//! (`tag(4) len(8) payload crc(4)`, the payload holding the block's
//! `L₁⁻¹` and `U₁⁻¹` as length-prefixed indptr/indices/values), then
//! the resident region — nine framed sections META, PERM, BSIZ, DEGS,
//! four matrices (`l2_inv`, `u2_inv` as CSC; `h12`, `h21` as CSR — each
//! `nrows(8) ncols(8)` + length-prefixed indptr/indices/values) and the
//! `SDIR` segment directory — then the 28-byte trailer.
//!
//! Surgery on a resident section must fail the load. Spoke segments are
//! decoded lazily (the load-time sweep only checks CRCs), so surgery on
//! a segment may load, but the first query touching the shard — and
//! `verify_index` — must fail with the typed `CorruptIndex` naming it:
//! never a panic, never a wrong answer.

use bear_core::{crc32, persist, Bear, BearConfig};
use bear_graph::Graph;
use bear_sparse::Error;
use std::path::PathBuf;

/// Trailer layout: magic (8) + region crc32 (4) + resident_off (8) +
/// total length (8).
const TRAILER_LEN_V3: usize = 28;

/// Byte span of one length-prefixed array in the index file.
#[derive(Debug, Clone, Copy)]
struct ArraySpan {
    /// Offset of the first element (just past the 8-byte length).
    data: usize,
    /// Element count.
    len: usize,
}

impl ArraySpan {
    /// Byte offset of element `i`.
    fn elem(&self, i: usize) -> usize {
        assert!(i < self.len, "element {i} out of {}", self.len);
        self.data + 8 * i
    }
}

/// Byte spans of one serialized matrix.
#[derive(Debug, Clone, Copy)]
struct MatrixSpan {
    ncols: usize,
    indptr: ArraySpan,
    indices: ArraySpan,
    values: ArraySpan,
}

/// Parsed layout of a saved index's resident region.
struct Layout {
    /// Offset of the META payload (`n1(8) n2(8) c(8)`).
    meta: usize,
    perm: ArraySpan,
    block_sizes: ArraySpan,
    /// `l2_inv, u2_inv, h12, h21` in file order.
    matrices: [MatrixSpan; 4],
}

fn read_u64_at(bytes: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap())
}

fn write_u64_at(bytes: &mut [u8], pos: usize, v: u64) {
    bytes[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
}

fn walk_array(bytes: &[u8], pos: &mut usize) -> ArraySpan {
    let len = read_u64_at(bytes, *pos) as usize;
    let span = ArraySpan { data: *pos + 8, len };
    *pos += 8 + 8 * len;
    span
}

/// indptr, indices, values starting at `pos`, for a matrix with
/// `ncols` columns (CSC) or rows (CSR).
fn walk_matrix(bytes: &[u8], mut pos: usize, ncols: usize) -> MatrixSpan {
    let indptr = walk_array(bytes, &mut pos);
    let indices = walk_array(bytes, &mut pos);
    let values = walk_array(bytes, &mut pos);
    MatrixSpan { ncols, indptr, indices, values }
}

/// `(payload offset, payload length)` of each of the nine resident
/// section frames.
fn resident_frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let trailer_off = bytes.len() - TRAILER_LEN_V3;
    let mut pos = read_u64_at(bytes, trailer_off + 12) as usize;
    let mut frames = Vec::new();
    while pos < trailer_off {
        let len = read_u64_at(bytes, pos + 4) as usize;
        frames.push((pos + 12, len));
        pos += 12 + len + 4;
    }
    assert_eq!(pos, trailer_off, "walker must consume every section exactly");
    frames
}

fn walk_resident(bytes: &[u8]) -> Layout {
    let frames = resident_frames(bytes);
    assert_eq!(frames.len(), 9, "the resident region has nine sections");
    // Raw u64 sections carry no inner length prefix; the frame length is
    // the byte count.
    let raw = |f: (usize, usize)| ArraySpan { data: f.0, len: f.1 / 8 };
    let matrices = std::array::from_fn(|i| {
        let (off, _) = frames[4 + i];
        let ncols = read_u64_at(bytes, off + 8) as usize;
        walk_matrix(bytes, off + 16, ncols) // past nrows + ncols
    });
    Layout { meta: frames[0].0, perm: raw(frames[1]), block_sizes: raw(frames[2]), matrices }
}

/// `(payload offset, payload length)` of every `SPKB` segment frame.
fn walk_segments_v3(bytes: &[u8]) -> Vec<(usize, usize)> {
    assert_eq!(&bytes[..8], b"BEARIDX3");
    let trailer_off = bytes.len() - TRAILER_LEN_V3;
    let resident_off = read_u64_at(bytes, trailer_off + 12) as usize;
    let mut pos = 8;
    let mut segments = Vec::new();
    while pos < resident_off {
        assert_eq!(&bytes[pos..pos + 4], b"SPKB", "segment walker off the rails");
        let len = read_u64_at(bytes, pos + 4) as usize;
        segments.push((pos + 12, len));
        pos += 12 + len + 4;
    }
    assert_eq!(pos, resident_off, "walker must consume every segment exactly");
    segments
}

/// A segment's `L₁⁻¹` and `U₁⁻¹`, both `dim × dim` CSC.
fn segment_matrices(bytes: &[u8], payload: usize) -> [MatrixSpan; 2] {
    let dim = read_u64_at(bytes, payload + 8) as usize;
    let l1 = walk_matrix(bytes, payload + 16, dim); // past block index + dim
    let u1 = walk_matrix(bytes, l1.values.data + 8 * l1.values.len, dim);
    [l1, u1]
}

/// Recomputes the full checksum chain after payload surgery (lengths
/// unchanged): every segment frame CRC, the copy of it inside the `SDIR`
/// directory, every resident section CRC, and the trailer's
/// resident-region CRC — so the corruption reaches the structural
/// validators instead of bouncing off the checksums.
fn fix_checksums_v3(bytes: &mut [u8]) {
    let trailer_off = bytes.len() - TRAILER_LEN_V3;
    let resident_off = read_u64_at(bytes, trailer_off + 12) as usize;
    // Segment frames and their fresh CRCs, in block order.
    let segments = walk_segments_v3(bytes);
    let mut seg_crcs = Vec::with_capacity(segments.len());
    for &(payload, len) in &segments {
        let crc = crc32::crc32(&bytes[payload..payload + len]);
        bytes[payload + len..payload + len + 4].copy_from_slice(&crc.to_le_bytes());
        seg_crcs.push(crc);
    }
    // Resident sections: update the SDIR payload's crc column first,
    // then re-fix every section frame CRC.
    let mut pos = resident_off;
    while pos < trailer_off {
        let tag: [u8; 4] = bytes[pos..pos + 4].try_into().unwrap();
        let len = read_u64_at(bytes, pos + 4) as usize;
        let payload = pos + 12;
        if &tag == b"SDIR" {
            let count = read_u64_at(bytes, payload) as usize;
            assert_eq!(count, seg_crcs.len(), "directory count must match the segment walk");
            for (i, &crc) in seg_crcs.iter().enumerate() {
                // Entry: offset, frame_len, crc, block_dim, l1_nnz, u1_nnz.
                let entry = payload + 8 + i * 48;
                write_u64_at(bytes, entry + 16, u64::from(crc));
            }
        }
        let crc = crc32::crc32(&bytes[payload..payload + len]);
        bytes[payload + len..payload + len + 4].copy_from_slice(&crc.to_le_bytes());
        pos = payload + len + 4;
    }
    let region_crc = crc32::crc32(&bytes[resident_off..trailer_off]);
    bytes[trailer_off + 8..trailer_off + 12].copy_from_slice(&region_crc.to_le_bytes());
}

/// A star graph (hub 0) plus a chord: `h21` (hubs × spokes) gets a row
/// with many entries, so index-ordering corruptions have room to land.
fn saved_index(tag: &str) -> (Vec<u8>, PathBuf) {
    let mut edges = Vec::new();
    for v in 1..12 {
        edges.push((0, v));
        edges.push((v, 0));
    }
    edges.push((5, 6));
    edges.push((6, 5));
    let g = Graph::from_edges(12, &edges).unwrap();
    let bear = Bear::new(&g, &BearConfig::exact(0.15)).unwrap();
    let path = std::env::temp_dir().join(format!("bear_corrupt_{tag}.idx"));
    bear.save(&path).unwrap();
    (std::fs::read(&path).unwrap(), path)
}

/// Re-fixes checksums over the surgically corrupted bytes, writes them,
/// and asserts `Bear::load` rejects them with the corruption taxonomy.
/// For surgery on the resident region, which is parsed in full at load.
fn assert_rejected(bytes: &[u8], path: &PathBuf, what: &str) -> Error {
    let mut fixed = bytes.to_vec();
    fix_checksums_v3(&mut fixed);
    std::fs::write(path, &fixed).unwrap();
    let result = Bear::load(path);
    std::fs::remove_file(path).ok();
    match result {
        Ok(_) => panic!("corrupt index ({what}) was accepted"),
        Err(e) => {
            assert!(
                matches!(e, Error::CorruptIndex { .. }),
                "corrupt index ({what}) must fail typed, got: {e:?}"
            );
            e
        }
    }
}

/// Re-fixes the checksum chain, writes the image, and asserts the
/// corruption surfaces typed — at load, or (lazy decode) at the first
/// query touching the shard — and that `verify_index`, which decodes
/// every segment, rejects it too. Returns the typed error for detail
/// checks. For surgery on spoke segments.
fn assert_v3_rejected(bytes: &[u8], path: &PathBuf, what: &str) -> Error {
    let mut fixed = bytes.to_vec();
    fix_checksums_v3(&mut fixed);
    std::fs::write(path, &fixed).unwrap();
    let result = Bear::load(path);
    let err = match result {
        Err(e) => {
            assert!(
                matches!(e, Error::CorruptIndex { .. }),
                "corrupt index ({what}) must fail typed at load, got: {e:?}"
            );
            e
        }
        Ok(bear) => {
            // CRC-consistent content corruption is caught by the lazy
            // segment decoder: some query must fail typed; none may
            // panic or answer from the damaged shard.
            let mut first = None;
            for seed in 0..bear.num_nodes() {
                match bear.query(seed) {
                    Ok(_) => {}
                    Err(e @ Error::CorruptIndex { .. }) => {
                        first = Some(e);
                        break;
                    }
                    Err(e) => panic!("corrupt shard ({what}) surfaced untyped: {e:?}"),
                }
            }
            first.unwrap_or_else(|| panic!("corrupt index ({what}) was accepted end to end"))
        }
    };
    let verified = persist::verify_index(path);
    assert!(
        matches!(verified, Err(Error::CorruptIndex { .. })),
        "verify_index must reject the corrupt index ({what}), got: {verified:?}"
    );
    std::fs::remove_file(path).ok();
    err
}

/// The first resident matrix (in file order) with a multi-entry first
/// compressed segment whose leading indices are strictly increasing —
/// guaranteed to exist here because `h21`'s hub row spans every spoke.
fn multi_entry_matrix(bytes: &[u8], layout: &Layout) -> MatrixSpan {
    *layout
        .matrices
        .iter()
        .find(|m| {
            m.indices.len >= 2
                && read_u64_at(bytes, m.indptr.elem(1)) >= 2
                && read_u64_at(bytes, m.indices.elem(0)) < read_u64_at(bytes, m.indices.elem(1))
        })
        .expect("test graph yields a matrix with a sorted multi-entry segment")
}

/// Asserts `err` names spoke segment `shard`.
fn assert_names_shard(err: &Error, shard: usize) {
    let want = format!("shard {shard}");
    assert!(
        matches!(err, Error::CorruptIndex { section: "spoke_segment", detail } if detail.contains(&want)),
        "want {want} named, got: {err:?}"
    );
}

#[test]
fn unsorted_indices_are_rejected() {
    let (mut bytes, path) = saved_index("unsorted");
    let layout = walk_resident(&bytes);
    let m = multi_entry_matrix(&bytes, &layout);
    let (a, b) = (read_u64_at(&bytes, m.indices.elem(0)), read_u64_at(&bytes, m.indices.elem(1)));
    write_u64_at(&mut bytes, m.indices.elem(0), b);
    write_u64_at(&mut bytes, m.indices.elem(1), a);
    assert_rejected(&bytes, &path, "unsorted column indices");
}

#[test]
fn duplicate_indices_are_rejected() {
    let (mut bytes, path) = saved_index("duplicate");
    let layout = walk_resident(&bytes);
    let m = multi_entry_matrix(&bytes, &layout);
    let first = read_u64_at(&bytes, m.indices.elem(0));
    write_u64_at(&mut bytes, m.indices.elem(1), first);
    assert_rejected(&bytes, &path, "duplicate indices in one segment");
}

#[test]
fn out_of_bounds_index_is_rejected() {
    let (mut bytes, path) = saved_index("oob_index");
    let layout = walk_resident(&bytes);
    // h21 is CSR (last matrix): its indices are column ids < ncols.
    let m = layout.matrices[3];
    assert!(m.indices.len >= 1);
    write_u64_at(&mut bytes, m.indices.elem(0), m.ncols as u64);
    assert_rejected(&bytes, &path, "index beyond the inner dimension");
}

#[test]
fn broken_indptr_is_rejected() {
    let (mut bytes, path) = saved_index("indptr");
    let layout = walk_resident(&bytes);
    let m = layout.matrices[2]; // h12
    let last = m.indptr.elem(m.indptr.len - 1);
    let v = read_u64_at(&bytes, last);
    write_u64_at(&mut bytes, last, v + 1);
    assert_rejected(&bytes, &path, "indptr not matching nnz");
}

#[test]
fn nan_value_is_rejected_with_typed_error() {
    let (mut bytes, path) = saved_index("nan");
    // Shard 0's `L₁⁻¹`: a unit-diagonal inverse, so it stores at least
    // one value.
    let (payload, _) = walk_segments_v3(&bytes)[0];
    let values = segment_matrices(&bytes, payload)[0].values;
    assert!(values.len >= 1, "L1 inverse block must store its unit diagonal");
    bytes[values.elem(0)..values.elem(0) + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    let err = assert_v3_rejected(&bytes, &path, "NaN value payload");
    // The non-finite audit fires beneath the checksums and surfaces
    // through the corruption taxonomy naming the shard and the factor.
    assert_names_shard(&err, 0);
    assert!(format!("{err}").contains("l1_inv"), "detail lost the factor: {err}");
    assert!(format!("{err}").contains("non-finite"), "detail lost the root cause: {err}");
}

#[test]
fn infinite_value_is_rejected() {
    let (mut bytes, path) = saved_index("inf");
    let layout = walk_resident(&bytes);
    let m = layout.matrices[0]; // l2_inv
    assert!(m.values.len >= 1);
    bytes[m.values.elem(0)..m.values.elem(0) + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
    let err = assert_rejected(&bytes, &path, "infinite value payload");
    assert!(format!("{err}").contains("non-finite"), "detail lost the root cause: {err}");
}

#[test]
fn non_bijective_permutation_is_rejected() {
    let (mut bytes, path) = saved_index("perm_dup");
    let layout = walk_resident(&bytes);
    assert!(layout.perm.len >= 2);
    let first = read_u64_at(&bytes, layout.perm.elem(0));
    write_u64_at(&mut bytes, layout.perm.elem(1), first);
    assert_rejected(&bytes, &path, "duplicate permutation entry");
}

#[test]
fn out_of_bounds_permutation_is_rejected() {
    let (mut bytes, path) = saved_index("perm_oob");
    let layout = walk_resident(&bytes);
    write_u64_at(&mut bytes, layout.perm.elem(0), layout.perm.len as u64);
    assert_rejected(&bytes, &path, "permutation entry beyond n");
}

#[test]
fn block_size_sum_mismatch_is_rejected() {
    let (mut bytes, path) = saved_index("blocks");
    let layout = walk_resident(&bytes);
    assert!(layout.block_sizes.len >= 1, "partition has at least one block");
    let pos = layout.block_sizes.elem(0);
    let v = read_u64_at(&bytes, pos);
    write_u64_at(&mut bytes, pos, v + 1);
    let err = assert_rejected(&bytes, &path, "block sizes not summing to n1");
    assert!(format!("{err}").contains("dimensions"), "unexpected error: {err}");
}

/// Regression: on-disk `u64` header dimensions near the top of the
/// range must fail typed everywhere. `n1`/`n2` are raw META payload
/// words (not length prefixes), so no bounded reader ever sees them;
/// before the checked conversions, `n1 + n2` overflowed (a panic in
/// debug builds, a wrapped bogus `n` in release) and on 32-bit targets
/// the `as usize` truncated them into valid-looking small values.
#[test]
fn huge_header_dimensions_are_rejected_not_overflowed() {
    for (tag, n1, n2) in [
        ("huge_both", u64::MAX, u64::MAX),
        ("huge_n1", u64::MAX, 2),
        ("huge_sum", u64::MAX / 2 + 1, u64::MAX / 2 + 1),
    ] {
        let (mut bytes, path) = saved_index(tag);
        let meta = walk_resident(&bytes).meta;
        write_u64_at(&mut bytes, meta, n1);
        write_u64_at(&mut bytes, meta + 8, n2);
        let err = assert_rejected(&bytes, &path, "huge n1/n2 header");
        assert!(matches!(err, Error::CorruptIndex { .. }), "want typed error, got: {err:?}");
    }
}

/// Regression: a huge element inside a `usize` array (here a
/// permutation entry at `u64::MAX`) must be rejected by the checked
/// conversion / validation path, never truncated by `as usize` into an
/// in-bounds id on narrower targets.
#[test]
fn huge_usize_array_element_is_rejected() {
    let (mut bytes, path) = saved_index("huge_elem");
    let layout = walk_resident(&bytes);
    write_u64_at(&mut bytes, layout.perm.elem(0), u64::MAX);
    assert_rejected(&bytes, &path, "u64::MAX permutation entry");
}

/// The array decoder takes a whole array with one bounds check, so a
/// length prefix must still be held against what remains: one element
/// more than the payload holds fails typed, naming the section.
#[test]
fn length_prefix_one_past_the_payload_is_rejected() {
    let (mut bytes, path) = saved_index("prefix_past_end");
    // `h21`'s values are the last array of its section.
    let values = walk_resident(&bytes).matrices[3].values;
    write_u64_at(&mut bytes, values.data - 8, values.len as u64 + 1);
    let err = assert_rejected(&bytes, &path, "length prefix one past the payload");
    assert!(
        matches!(&err, Error::CorruptIndex { section: "h21", detail } if detail.contains("length prefix")),
        "want h21 named with the bad prefix, got: {err:?}"
    );
}

/// A payload that ends three bytes into its last element fails typed,
/// naming the section; no partial element is dropped or read past.
#[test]
fn array_cut_mid_element_is_rejected() {
    let (bytes, path) = saved_index("cut_mid_element");
    let (payload, len) = resident_frames(&bytes)[7]; // h21, ending in its values
    let mut cut = bytes[..payload + len - 3].to_vec();
    cut.extend_from_slice(&bytes[payload + len..]);
    write_u64_at(&mut cut, payload - 8, len as u64 - 3);
    let total = cut.len();
    write_u64_at(&mut cut, total - 8, total as u64); // trailer's file length
    let err = assert_rejected(&cut, &path, "array cut mid-element");
    assert!(
        matches!(&err, Error::CorruptIndex { section: "h21", detail } if detail.contains("length prefix")),
        "want h21 named with the short array, got: {err:?}"
    );
}

#[test]
fn untouched_round_trip_still_loads() {
    // Control: the walkers prove the layout assumption, the checksum
    // fixer is sound, and a re-fixed but unmodified image still loads,
    // pages and verifies after all the hardening.
    let (mut bytes, path) = saved_index("control");
    walk_resident(&bytes);
    for &(payload, _) in &walk_segments_v3(&bytes) {
        segment_matrices(&bytes, payload);
    }
    let pristine = bytes.clone();
    fix_checksums_v3(&mut bytes);
    assert_eq!(bytes, pristine, "re-fixing an untouched image must change nothing");
    std::fs::write(&path, &bytes).unwrap();
    let loaded = Bear::load(&path).unwrap();
    assert_eq!(loaded.num_nodes(), 12);
    loaded.query(0).unwrap();
    persist::verify_index(&path).unwrap();
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Spoke segment framing
// ---------------------------------------------------------------------------

/// Offset of `SDIR` entry `i` (offset, frame_len, crc, block_dim,
/// l1_nnz, u1_nnz: six `u64`s).
fn sdir_entry_v3(bytes: &[u8], i: usize) -> usize {
    resident_frames(bytes)[8].0 + 8 + 48 * i
}

#[test]
fn v3_segment_wrong_block_index_is_rejected() {
    let (mut bytes, path) = saved_index("segment_blockidx");
    let segments = walk_segments_v3(&bytes);
    // First payload word is the block index; claim block 0 is block 1.
    let (payload, _) = segments[0];
    write_u64_at(&mut bytes, payload, 1);
    let err = assert_v3_rejected(&bytes, &path, "segment block-index mismatch");
    assert!(
        matches!(err, Error::CorruptIndex { section: "spoke_segment", .. }),
        "want the shard section named, got: {err:?}"
    );
    assert!(format!("{err}").contains("shard 0"), "detail must name the shard: {err}");
}

#[test]
fn v3_segment_wrong_dimension_is_rejected() {
    let (mut bytes, path) = saved_index("segment_dim");
    let segments = walk_segments_v3(&bytes);
    // Second payload word is the block dimension; disagree with the
    // directory.
    let (payload, _) = segments[0];
    let dim = read_u64_at(&bytes, payload + 8);
    write_u64_at(&mut bytes, payload + 8, dim + 1);
    let err = assert_v3_rejected(&bytes, &path, "segment dimension mismatch");
    assert!(
        matches!(err, Error::CorruptIndex { section: "spoke_segment", .. }),
        "want the shard section named, got: {err:?}"
    );
}

/// As the resident case: a segment whose last array claims one element
/// more than the payload holds fails typed, naming the shard.
#[test]
fn v3_segment_length_prefix_one_past_the_payload_is_rejected() {
    let (mut bytes, path) = saved_index("segment_prefix_past_end");
    let (payload, _) = walk_segments_v3(&bytes)[0];
    let u1_values = segment_matrices(&bytes, payload)[1].values;
    write_u64_at(&mut bytes, u1_values.data - 8, u1_values.len as u64 + 1);
    let err = assert_v3_rejected(&bytes, &path, "segment length prefix one past the payload");
    assert!(
        matches!(&err, Error::CorruptIndex { section: "spoke_segment", detail }
            if detail.contains("shard 0") && detail.contains("length prefix")),
        "want shard 0 named with the bad prefix, got: {err:?}"
    );
}

/// A segment payload that ends three bytes into its last element, with
/// the frame, directory and trailer all agreeing on the shorter length,
/// fails typed, naming the shard.
#[test]
fn v3_segment_array_cut_mid_element_is_rejected() {
    let (bytes, path) = saved_index("segment_cut_mid_element");
    let segments = walk_segments_v3(&bytes);
    let last = segments.len() - 1;
    // The last segment sits right before the resident region, so only
    // its own lengths and the trailer's offsets move.
    let (payload, len) = segments[last];
    let mut cut = bytes[..payload + len - 3].to_vec();
    cut.extend_from_slice(&bytes[payload + len..]);
    write_u64_at(&mut cut, payload - 8, len as u64 - 3);
    let trailer_off = cut.len() - TRAILER_LEN_V3;
    let resident_off = read_u64_at(&cut, trailer_off + 12);
    write_u64_at(&mut cut, trailer_off + 12, resident_off - 3);
    write_u64_at(&mut cut, trailer_off + 20, (trailer_off + TRAILER_LEN_V3) as u64);
    let entry = sdir_entry_v3(&cut, last);
    let frame_len = read_u64_at(&cut, entry + 8);
    write_u64_at(&mut cut, entry + 8, frame_len - 3);
    let err = assert_v3_rejected(&cut, &path, "segment array cut mid-element");
    let shard = format!("shard {last}");
    assert!(
        matches!(&err, Error::CorruptIndex { section: "spoke_segment", detail }
            if detail.contains(&shard) && detail.contains("length prefix")),
        "want {shard} named with the short array, got: {err:?}"
    );
}
