//! Property-based tests for the codec and LZ4 implementations.

use proptest::prelude::*;
use xingtian_message::codec::{Decode, Encode, Reader};
use xingtian_message::lz4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lz4_round_trips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = lz4::compress(&data);
        let d = lz4::decompress(&c).unwrap();
        prop_assert_eq!(d, data);
    }

    #[test]
    fn lz4_round_trips_compressible_bytes(
        seed in proptest::collection::vec(any::<u8>(), 1..32),
        reps in 1usize..400,
    ) {
        let data: Vec<u8> = seed.iter().copied().cycle().take(seed.len() * reps).collect();
        let c = lz4::compress(&data);
        let d = lz4::decompress(&c).unwrap();
        prop_assert_eq!(d, data);
    }

    #[test]
    fn pid_list_decode_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // A beacon body off the wire: a list or an error, never a panic.
        let _ = Vec::<xingtian_message::ProcessId>::from_bytes(&data);
    }

    #[test]
    fn lz4_decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Malformed input must produce an error or some output, never a panic.
        let _ = lz4::decompress(&data);
    }

    #[test]
    fn codec_f32_vec_round_trips(v in proptest::collection::vec(any::<f32>(), 0..512)) {
        let bytes = v.to_bytes();
        let back = Vec::<f32>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.len(), v.len());
        for (a, b) in back.iter().zip(v.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn codec_string_round_trips(s in ".{0,128}") {
        let bytes = s.clone().to_bytes();
        prop_assert_eq!(String::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn codec_mixed_stream_round_trips(
        a in any::<u64>(),
        b in any::<f64>(),
        v in proptest::collection::vec(any::<u32>(), 0..64),
        flag in any::<bool>(),
    ) {
        let mut buf = Vec::new();
        a.encode(&mut buf);
        b.encode(&mut buf);
        v.encode(&mut buf);
        flag.encode(&mut buf);
        let mut r = Reader::new(&buf);
        prop_assert_eq!(u64::decode(&mut r).unwrap(), a);
        prop_assert_eq!(f64::decode(&mut r).unwrap().to_bits(), b.to_bits());
        prop_assert_eq!(Vec::<u32>::decode(&mut r).unwrap(), v);
        prop_assert_eq!(bool::decode(&mut r).unwrap(), flag);
        prop_assert!(r.is_empty());
    }

    #[test]
    fn codec_decode_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Vec::<f32>::from_bytes(&data);
        let _ = String::from_bytes(&data);
        let _ = Vec::<usize>::from_bytes(&data);
        let _ = Option::<u64>::from_bytes(&data);
    }
}
