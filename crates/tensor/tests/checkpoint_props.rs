//! Property tests for the checkpoint container: serialization is a bijection
//! on valid byte strings, and every corruption is detected.

use bootleg_tensor::checkpoint::{
    atomic_write, crc32, decode_param_store_into, decode_tensors, decode_u64s,
    encode_param_store, encode_tensors, encode_u64s, Checkpoint, CheckpointManager,
};
use bootleg_tensor::{ParamStore, Tensor};
use proptest::prelude::*;

fn checkpoint_from(step: u64, sections: &[(u8, Vec<u8>)]) -> Checkpoint {
    let mut c = Checkpoint::new(step);
    for (tag, payload) in sections {
        c.put(&format!("section-{tag}"), payload.clone());
    }
    c
}

proptest! {
    #[test]
    fn save_load_save_is_byte_identical(
        step in 0u64..u64::MAX,
        sections in proptest::collection::vec(
            (0u8..32, proptest::collection::vec(0u8..=255, 0..200)),
            0..8,
        ),
    ) {
        let c = checkpoint_from(step, &sections);
        let bytes = c.to_bytes();
        let reloaded = Checkpoint::from_bytes(&bytes).expect("valid bytes parse");
        prop_assert_eq!(reloaded.step, c.step);
        // The round-tripped checkpoint must re-serialize to the exact same
        // bytes: save -> load -> save is the identity on the file.
        prop_assert_eq!(reloaded.to_bytes(), bytes);
    }

    #[test]
    fn corrupt_byte_is_rejected(
        step in 0u64..1_000_000,
        payload in proptest::collection::vec(0u8..=255, 1..300),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut c = Checkpoint::new(step);
        c.put("data", payload);
        let mut bytes = c.to_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        prop_assert!(
            Checkpoint::from_bytes(&bytes).is_err(),
            "flipping byte {} must fail the checksum", pos
        );
    }

    #[test]
    fn truncated_file_is_rejected(
        step in 0u64..1_000_000,
        payload in proptest::collection::vec(0u8..=255, 0..300),
        keep_frac in 0.0f64..1.0,
    ) {
        let mut c = Checkpoint::new(step);
        c.put("data", payload);
        let bytes = c.to_bytes();
        let keep = ((bytes.len() - 1) as f64 * keep_frac) as usize;
        prop_assert!(
            Checkpoint::from_bytes(&bytes[..keep]).is_err(),
            "truncating {} -> {} bytes must be rejected", bytes.len(), keep
        );
    }

    #[test]
    fn tensor_payload_roundtrips(
        rows in 1usize..6,
        cols in 1usize..6,
        scale in -100.0f32..100.0,
    ) {
        let t = Tensor::new(
            vec![rows, cols],
            (0..rows * cols).map(|i| i as f32 * scale).collect(),
        );
        let bytes = encode_tensors(std::slice::from_ref(&t));
        let back = decode_tensors(&bytes).expect("decode");
        prop_assert_eq!(back.len(), 1);
        prop_assert_eq!(&back[0], &t);
        prop_assert_eq!(encode_tensors(&back), bytes);
    }

    #[test]
    fn u64_payload_roundtrips(values in proptest::collection::vec(0u64..u64::MAX, 0..64)) {
        let values_clone = values.clone();
        prop_assert_eq!(decode_u64s(&encode_u64s(&values)).expect("decode"), values_clone);
    }
}

#[test]
fn corrupt_crc_trailer_is_rejected() {
    let mut c = Checkpoint::new(42);
    c.put("data", vec![7u8; 48]);
    let mut bytes = c.to_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    let err = Checkpoint::from_bytes(&bytes).expect_err("bad trailer CRC must be rejected");
    assert!(err.to_string().contains("checksum"), "{err}");
}

#[test]
fn wrong_version_is_rejected_even_with_valid_crc() {
    let mut c = Checkpoint::new(42);
    c.put("data", vec![7u8; 48]);
    let mut bytes = c.to_bytes();
    // Patch the version field and re-checksum so the failure exercises the
    // version check itself, not the CRC guard in front of it.
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    let err = Checkpoint::from_bytes(&bytes).expect_err("future version must be rejected");
    assert!(err.to_string().contains("version"), "{err}");
}

#[test]
fn overflowing_tensor_dims_are_a_typed_error() {
    // One tensor whose dims multiply past usize (2^33 · 2^31 = 2^64), and
    // one whose element count fits but whose byte length (·4) does not,
    // each in a CRC-valid checkpoint section.
    for dims in [[1u64 << 33, 1 << 31], [1 << 62, 1]] {
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes()); // tensor count
        payload.extend_from_slice(&2u32.to_le_bytes()); // rank
        for d in dims {
            payload.extend_from_slice(&d.to_le_bytes());
        }
        let mut c = Checkpoint::new(1);
        c.put("tensors", payload);
        let parsed = Checkpoint::from_bytes(&c.to_bytes()).expect("container is CRC-valid");
        let err = decode_tensors(parsed.get("tensors").expect("section present"))
            .expect_err("overflowing dims must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "dims {dims:?}: {err}");
    }
}

#[test]
fn param_store_section_roundtrips_bit_exactly() {
    let mut store = ParamStore::new();
    store.add("w1", Tensor::new(vec![3, 4], (0..12).map(|i| i as f32 * 0.37 - 2.0).collect()));
    store.add("b1", Tensor::new(vec![4], vec![f32::MIN_POSITIVE, -0.0, 1.5e-30, 7.25]));
    let bytes = encode_param_store(&store);

    // A freshly built store with matching names/shapes but different values.
    let mut other = ParamStore::new();
    other.add("w1", Tensor::new(vec![3, 4], vec![9.0; 12]));
    other.add("b1", Tensor::new(vec![4], vec![9.0; 4]));
    decode_param_store_into(&mut other, &bytes).expect("decode into matching store");
    for ((_, a), (_, b)) in store.iter().zip(other.iter()) {
        assert_eq!(a.name, b.name);
        let bits_a: Vec<u32> = a.data.data().iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = b.data.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "param {} must round-trip bit-exactly", a.name);
    }
    // And re-encoding the restored store reproduces the bytes.
    assert_eq!(encode_param_store(&other), bytes);

    // A shape mismatch is a typed error, not silent acceptance.
    let mut wrong = ParamStore::new();
    wrong.add("w1", Tensor::new(vec![4, 3], vec![0.0; 12]));
    wrong.add("b1", Tensor::new(vec![4], vec![0.0; 4]));
    assert!(decode_param_store_into(&mut wrong, &bytes).is_err());
}

#[test]
fn atomic_write_replaces_existing_file_completely() {
    let dir = std::env::temp_dir().join(format!("bootleg_ckpt_props_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("f.bin");
    atomic_write(&path, &[1u8; 100]).expect("first write");
    atomic_write(&path, &[2u8; 10]).expect("second write");
    assert_eq!(std::fs::read(&path).expect("read"), vec![2u8; 10]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manager_survives_all_checkpoints_corrupt() {
    let dir = std::env::temp_dir().join(format!("bootleg_ckpt_allbad_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mgr = CheckpointManager::new(&dir, 4).expect("mgr");
    for step in [1u64, 2, 3] {
        let mut c = Checkpoint::new(step);
        c.put("x", vec![0u8; 64]);
        let path = mgr.save(&c).expect("save");
        std::fs::write(&path, b"shredded").expect("shred");
    }
    let loaded = mgr.load_latest_valid().expect("io");
    assert!(loaded.is_none(), "no valid checkpoint must mean None, not a panic");
    std::fs::remove_dir_all(&dir).ok();
}
