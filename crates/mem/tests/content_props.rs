//! Property tests (driven by `seuss-check`): sparse page content must
//! behave exactly like a dense 4 KiB byte array under any write/read
//! sequence, through every representation (inline word, sparse
//! fragments, dense page).

use seuss_check::{check_with, ensure_eq, gen::Gen, Config};
use seuss_mem::{PageContent, PAGE_SIZE};

#[derive(Clone, Debug, PartialEq)]
struct WriteOp {
    offset: usize,
    bytes: Vec<u8>,
}

/// Offset plus 1–200 payload bytes, clamped so the write stays in-page.
fn write_ops(max_ops: usize) -> impl Gen<Value = Vec<WriteOp>> {
    let op = (
        seuss_check::range(0usize, PAGE_SIZE - 1),
        seuss_check::vecs(seuss_check::range(0u8, 255), 1, 200),
    )
        .map(|(offset, mut bytes)| {
            bytes.truncate((PAGE_SIZE - offset).max(1));
            WriteOp { offset, bytes }
        });
    seuss_check::vecs(op, 0, max_ops)
}

/// A word-sized write: mostly 1–8 bytes, in the first 64 bytes half of
/// the time so that writes overlap, with an occasional wider write.
fn small_write_op() -> impl Gen<Value = WriteOp> {
    let bytes = || seuss_check::range(0u8, 255);
    (
        seuss_check::one_of(vec![
            seuss_check::range(0usize, 64).boxed(),
            seuss_check::range(0usize, PAGE_SIZE - 1).boxed(),
        ]),
        seuss_check::one_of(vec![
            seuss_check::vecs(bytes(), 1, 8).boxed(),
            seuss_check::vecs(bytes(), 1, 8).boxed(),
            seuss_check::vecs(bytes(), 1, 8).boxed(),
            seuss_check::vecs(bytes(), 9, 48).boxed(),
        ]),
    )
        .map(|(offset, mut bytes)| {
            bytes.truncate(PAGE_SIZE - offset);
            WriteOp { offset, bytes }
        })
}

/// Sequences of [`small_write_op`]: one op leaves a page inline, a few
/// make it sparse, and enough cross the sparse limit and make it dense.
fn small_write_ops() -> impl Gen<Value = Vec<WriteOp>> {
    seuss_check::one_of(vec![
        seuss_check::vecs(small_write_op(), 0, 3).boxed(),
        seuss_check::vecs(small_write_op(), 0, 40).boxed(),
    ])
}

fn apply(ops: &[WriteOp]) -> (PageContent, Vec<u8>) {
    let mut content = PageContent::Zero;
    let mut reference = vec![0u8; PAGE_SIZE];
    for op in ops {
        content.write(op.offset, &op.bytes);
        reference[op.offset..op.offset + op.bytes.len()].copy_from_slice(&op.bytes);
    }
    (content, reference)
}

#[test]
fn sparse_matches_dense_reference() {
    check_with(
        Config::with_cases(64),
        "content_dense_equiv",
        &write_ops(40),
        |ops| {
            let (content, reference) = apply(ops);
            let mut full = vec![0u8; PAGE_SIZE];
            content.read(0, &mut full);
            ensure_eq!(&full, &reference);
            Ok(())
        },
    );
}

#[test]
fn partial_reads_match_reference() {
    let cases = (
        write_ops(20),
        seuss_check::range(0usize, PAGE_SIZE - 1),
        seuss_check::range(1usize, 300),
    );
    check_with(
        Config::with_cases(64),
        "content_partial_reads",
        &cases,
        |&(ref ops, read_offset, read_len)| {
            let read_len = read_len.min(PAGE_SIZE - read_offset).max(1);
            let (content, reference) = apply(ops);
            let mut out = vec![0u8; read_len];
            content.read(read_offset, &mut out);
            ensure_eq!(&out[..], &reference[read_offset..read_offset + read_len]);
            Ok(())
        },
    );
}

#[test]
fn clone_is_snapshot_isolated() {
    let cases = (write_ops(12), write_ops(12));
    check_with(
        Config::with_cases(64),
        "content_clone_isolated",
        &cases,
        |(ops_a, ops_b)| {
            let mut a = PageContent::Zero;
            for op in ops_a {
                a.write(op.offset, &op.bytes);
            }
            let frozen = a.clone();
            let mut want = vec![0u8; PAGE_SIZE];
            frozen.read(0, &mut want);
            // Mutating the original must not affect the clone (COW
            // semantics rely on this).
            for op in ops_b {
                a.write(op.offset, &op.bytes);
            }
            let mut got = vec![0u8; PAGE_SIZE];
            frozen.read(0, &mut got);
            ensure_eq!(got, want);
            Ok(())
        },
    );
}

#[test]
fn small_writes_match_dense_reference_and_digest() {
    check_with(
        Config::with_cases(256),
        "content_small_writes",
        &small_write_ops(),
        |ops| {
            let (content, reference) = apply(ops);
            let mut full = vec![0u8; PAGE_SIZE];
            content.read(0, &mut full);
            ensure_eq!(&full, &reference);
            // A page written whole is dense; a written page's digest must
            // not depend on which representation the writes ended in.
            if !ops.is_empty() {
                let mut dense = PageContent::Zero;
                dense.write(0, &reference);
                ensure_eq!(content.digest(), dense.digest());
            }
            let inline = matches!(content, PageContent::Inline { .. });
            let one_word = ops.iter().filter(|op| !op.bytes.is_empty()).count() == 1
                && ops.iter().all(|op| op.bytes.len() <= 8);
            ensure_eq!(inline, one_word);
            Ok(())
        },
    );
}
