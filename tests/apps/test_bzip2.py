"""Tests for the block-sorting compressor (stages + end-to-end + flows)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.bzip2 import (BitReader, BitWriter, bwt_forward, bwt_inverse,
                              canonical_codes, code_lengths, compress,
                              compressed_size, decompress,
                              measure_compression_flow, mtf_decode,
                              mtf_encode, rle_decode, rle_encode)
from repro.apps.bzip2.huffman import Decoder, encode
from repro.apps.pi import pi_digits, pi_in_english, workload_of_size
from repro.graph.serialize import graph_digest
from repro.pytrace import Session


class TestBitIO:
    def test_round_trip_bits(self):
        writer = BitWriter()
        pattern = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1]
        for bit in pattern:
            writer.write_bit(bit)
        reader = BitReader(writer.to_bytes())
        assert [reader.read_bit() for _ in pattern] == pattern

    def test_write_bits_msb_first(self):
        writer = BitWriter()
        writer.write_bits(0b1011, 4)
        assert writer.to_bytes() == bytes([0b10110000])

    @given(st.lists(st.tuples(st.integers(0, 2**16 - 1),
                              st.integers(1, 16)), max_size=30))
    def test_round_trip_values(self, fields):
        writer = BitWriter()
        for value, width in fields:
            writer.write_bits(value & ((1 << width) - 1), width)
        reader = BitReader(writer.to_bytes())
        for value, width in fields:
            assert reader.read_bits(width) == value & ((1 << width) - 1)

    def test_reader_eof(self):
        reader = BitReader(b"")
        with pytest.raises(EOFError):
            reader.read_bit()


class TestRLE:
    def test_short_runs_pass_through(self):
        assert rle_encode(list(b"abc")) == list(b"abc")

    def test_run_of_four_gets_count(self):
        assert rle_encode([7, 7, 7, 7]) == [7, 7, 7, 7, 0]

    def test_long_run(self):
        assert rle_encode([5] * 10) == [5, 5, 5, 5, 6]

    @given(st.lists(st.integers(0, 255), max_size=200))
    def test_round_trip(self, data):
        assert rle_decode(rle_encode(data)) == data

    @given(st.integers(0, 255), st.integers(0, 300))
    def test_round_trip_runs(self, byte, length):
        data = [byte] * length
        assert rle_decode(rle_encode(data)) == data


class TestBWT:
    def test_known_transform(self):
        last, primary = bwt_forward(list(b"banana"))
        assert bwt_inverse(last, primary) == list(b"banana")

    def test_groups_similar_context(self):
        last, _ = bwt_forward(list(b"abcabcabcabc"))
        # BWT of a repetitive string concentrates runs.
        runs = sum(1 for i in range(1, len(last)) if last[i] != last[i - 1])
        assert runs < 6

    def test_empty_and_single(self):
        assert bwt_forward([]) == ([], 0)
        last, primary = bwt_forward([42])
        assert bwt_inverse(last, primary) == [42]

    @given(st.lists(st.integers(0, 255), max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, data):
        last, primary = bwt_forward(data)
        assert bwt_inverse(last, primary) == data

    def test_tracked_input_round_trips(self):
        session = Session()
        data = session.secret_bytes(b"mississippi river")
        with session.enclose("bwt") as region:
            last, primary = bwt_forward(data)
        concrete = [b if isinstance(b, int) else b.concrete() for b in last]
        assert bytes(bwt_inverse(concrete, primary)) == b"mississippi river"


class TestMTF:
    def test_first_symbol_is_its_value(self):
        assert mtf_encode([65])[0] == 65

    def test_repeats_become_zero(self):
        assert mtf_encode([65, 65, 65]) == [65, 0, 0]

    @given(st.lists(st.integers(0, 255), max_size=200))
    def test_round_trip(self, data):
        assert mtf_decode(mtf_encode(data)) == data

    def test_skews_distribution(self):
        data = list(b"aaabbbaaaccc" * 5)
        indices = mtf_encode(data)
        assert indices.count(0) > len(indices) // 2


class TestRLE2:
    from repro.apps.bzip2 import RUNA, RUNB

    def test_single_zero_is_runa(self):
        from repro.apps.bzip2 import rle2_encode
        assert rle2_encode([0]) == [self.RUNA]

    def test_bijective_base2_ladder(self):
        # 1->A, 2->B, 3->AA, 4->BA, 5->AB, 6->BB, 7->AAA (bzip2's table)
        from repro.apps.bzip2 import rle2_encode
        A, B = self.RUNA, self.RUNB
        expected = {1: [A], 2: [B], 3: [A, A], 4: [B, A],
                    5: [A, B], 6: [B, B], 7: [A, A, A]}
        for run, symbols in expected.items():
            assert rle2_encode([0] * run) == symbols, run

    def test_nonzero_indices_shift_up(self):
        from repro.apps.bzip2 import rle2_encode
        assert rle2_encode([5, 255]) == [6, 256]

    def test_bad_symbol_rejected(self):
        from repro.apps.bzip2 import ALPHABET, rle2_decode
        with pytest.raises(ValueError):
            rle2_decode([ALPHABET])

    @given(st.lists(st.integers(0, 255), max_size=300))
    def test_round_trip(self, indices):
        from repro.apps.bzip2 import rle2_decode, rle2_encode
        assert rle2_decode(rle2_encode(indices)) == indices

    def test_compresses_zero_heavy_streams(self):
        from repro.apps.bzip2 import rle2_encode
        indices = [0] * 1000 + [3]
        assert len(rle2_encode(indices)) < 15


class TestHuffman:
    def test_lengths_reflect_frequencies(self):
        freqs = [0] * 256
        freqs[0] = 100
        freqs[1] = 1
        freqs[2] = 1
        lengths = code_lengths(freqs)
        assert lengths[0] < lengths[1]
        assert lengths[3] == 0

    def test_single_symbol(self):
        freqs = [0] * 256
        freqs[9] = 5
        lengths = code_lengths(freqs)
        assert lengths[9] == 1

    def test_canonical_codes_prefix_free(self):
        freqs = [0] * 256
        for sym, f in [(1, 10), (2, 6), (3, 2), (4, 1), (5, 1)]:
            freqs[sym] = f
        lengths = code_lengths(freqs)
        codes = canonical_codes(lengths)
        bit_strings = [format(code, "0%db" % length)
                       for code, length in
                       (c for c in codes if c is not None)]
        for a in bit_strings:
            for b in bit_strings:
                if a != b:
                    assert not b.startswith(a)

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_round_trip(self, symbols):
        freqs = [0] * 256
        for sym in symbols:
            freqs[sym] += 1
        lengths = code_lengths(freqs)
        writer = BitWriter()
        encode(symbols, lengths, writer)
        reader = BitReader(writer.to_bytes())
        assert Decoder(lengths).decode(reader, len(symbols)) == symbols

    def test_kraft_equality_for_optimal_code(self):
        freqs = [0] * 256
        for sym, f in [(1, 7), (2, 5), (3, 3), (4, 1)]:
            freqs[sym] = f
        lengths = code_lengths(freqs)
        assert sum(2.0 ** -l for l in lengths if l) == pytest.approx(1.0)


class TestCompressor:
    CASES = [
        b"",
        b"a",
        b"abcd",
        b"aaaaaaaaaaaaaaaaaaaaaaaaaaa",
        b"the quick brown fox jumps over the lazy dog " * 20,
        bytes(random.Random(7).randrange(256) for _ in range(700)),
    ]

    @pytest.mark.parametrize("data", CASES, ids=range(len(CASES)))
    def test_round_trip(self, data):
        assert decompress(compress(list(data))) == data

    def test_round_trip_multiple_blocks(self):
        data = workload_of_size(3000)
        assert decompress(compress(list(data), block_size=512)) == data

    def test_compresses_english_pi(self):
        data = workload_of_size(2000)
        assert compressed_size(data) < len(data) // 2

    def test_random_data_does_not_explode(self):
        data = bytes(random.Random(1).randrange(256) for _ in range(1000))
        assert compressed_size(data) < len(data) * 2

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decompress(b"NOPE" + b"\x00")

    @given(st.binary(max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, data):
        assert decompress(compress(list(data))) == data


class TestTrackedCompression:
    def test_tracked_output_matches_plain(self):
        data = workload_of_size(300)
        session = Session()
        tracked = compress(session.secret_bytes(data), session=session)
        concrete = bytes(b if isinstance(b, int) else b.concrete()
                         for b in tracked)
        assert concrete == compress(list(data))
        assert decompress(concrete) == data

    def test_flow_tracks_compressed_size(self):
        data = workload_of_size(400)
        result = measure_compression_flow(data)
        assert result.flow_bits <= result.payload_output_bits + 8
        assert result.flow_bits <= result.input_bits
        # Compressible input: flow well below input size.
        assert result.flow_bits < result.input_bits

    def test_incompressible_input_bounded_by_input(self):
        data = workload_of_size(24)
        result = measure_compression_flow(data)
        assert result.flow_bits <= result.input_bits

    def test_flow_monotone_in_input_size(self):
        flows = [measure_compression_flow(workload_of_size(n)).flow_bits
                 for n in (128, 512, 1024)]
        assert flows == sorted(flows)


_PIN_WORDS = (
    "the", "of", "and", "to", "in", "is", "that", "it", "was", "for",
    "on", "are", "with", "as", "his", "they", "be", "at", "one", "have",
    "this", "from", "by", "hot", "word", "but", "what", "some", "we",
    "can", "out", "other", "were", "all", "there", "when", "up", "use",
    "your", "how", "said", "an", "each", "she")


def english_text(seed, size=512):
    """``size`` bytes of seeded English-like sentences."""
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < size:
        words = [rng.choice(_PIN_WORDS) for _ in range(rng.randint(5, 14))]
        words[0] = words[0].capitalize()
        out += " ".join(words).encode("ascii") + b". "
    return bytes(out[:size])


def _stats(graph_nodes, graph_edges, tainted_output_bits):
    return {"operations": 511, "implicit_flows": 2559, "outputs": 1,
            "secret_input_bits": 4096,
            "tainted_output_bits": tainted_output_bits,
            "graph_nodes": graph_nodes, "graph_edges": graph_edges}


#: (text seed, collapse) -> (bits, collapsed edges, tracker stats,
#: SHA-256 of the collapsed graph's flowgraph-v1 text), for the online
#: Figure 3 measurement of ``english_text(seed)``.
FIG3_PINS = {
    (11, "location"): (
        2088, 14, _stats(2574, 5903, 2088),
        "4ed9bf8b19a107d1a1aded466b7fac78073f7753d9f70ea9343d6d37511b7398"),
    (11, "context"): (
        2088, 14, _stats(2574, 5903, 2088),
        "1a2b1779d2bec1772b56d8d79328fc2f56fa1c899b3cbc9b896e11a9a1914c2c"),
    (12, "location"): (
        2168, 14, _stats(2594, 5933, 2168),
        "df30a68909830e537f1f5014bde9764c79f2e863e3ae90e771640813f04c975d"),
    (12, "context"): (
        2168, 14, _stats(2594, 5933, 2168),
        "258b48f8a2ecb4c34bb13edfddc5c37e01cb3ed57ecf7409e2821a3b922c4dbe"),
}


@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("seed,collapse", sorted(FIG3_PINS))
def test_figure3_figures_pinned(seed, collapse, backend):
    """Absolute Figure 3 figures: the backend suites compare backends
    with each other, so a change to an event both backends share (the
    bulk region outputs, say) would move them together unseen."""
    result = measure_compression_flow(english_text(seed), online=True,
                                      collapse=collapse, backend=backend)
    report = result.report
    assert (result.flow_bits, report.collapse_stats.collapsed_edges,
            report.stats, graph_digest(report.graph)) == \
        FIG3_PINS[seed, collapse]


class TestPiWorkload:
    def test_known_digits(self):
        assert pi_digits(10) == [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]

    def test_fifty_digits(self):
        known = "31415926535897932384626433832795028841971693993751"
        assert "".join(map(str, pi_digits(50))) == known

    def test_english_rendering(self):
        assert pi_in_english(3) == b"three point one four"

    def test_workload_exact_size(self):
        for n in (1, 10, 257, 4000):
            assert len(workload_of_size(n)) == n

    def test_workload_ascii_words(self):
        text = workload_of_size(200)
        assert all(97 <= b <= 122 or b == 32 for b in text)

    def test_zero_and_negative(self):
        assert workload_of_size(0) == b""
        assert pi_digits(0) == []
