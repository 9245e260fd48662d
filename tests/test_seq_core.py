"""Generator and checkpoint-index unit tests.

Irrational-rotation values are checked against literals precomputed with
50-digit arithmetic; radical-inverse values against the exact dyadic/triadic
fractions.
"""

import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statindep import (
    AffineImageSequence,
    BlockSequence,
    CheckpointError,
    ConstantSequence,
    FileSequence,
    Interval,
    IntervalError,
    KroneckerSequence,
    PeriodicSequence,
    RangeViolation,
    SequenceExhausted,
    SequenceFileError,
    SpecError,
    SubsequenceIndex,
    UNIT,
    VanDerCorputSequence,
    empirical_cdf,
    from_spec,
    load_sequence,
    make_block,
    stieltjes,
)
from statindep import forkwalk, sequences
from statindep.density import Tally
from statindep.sequences import _CHUNK, SEQUENCE_KINDS, normalize_spec
from _brute import brute_grid_counts, brute_van_der_corput
from test_independence import _same_bits, _serial_and_forked, forks

# Fractional parts of n*alpha, precomputed at 50 digits and frozen.
KRONECKER_ORACLE = {
    "sqrt2-1": {1: 0.41421356237309503, 2: 0.8284271247461901,
                3: 0.24264068711928516, 10: 0.14213562373095048,
                10 ** 4: 0.13562373095048802, 10 ** 5: 0.3562373095048802,
                10 ** 6: 0.5623730950488017},
    "sqrt3-1": {1: 0.7320508075688773, 2: 0.4641016151377546,
                10 ** 4: 0.5080756887729353, 10 ** 6: 0.8075688772935274},
    "golden": {1: 0.6180339887498949, 2: 0.2360679774997897,
               3: 0.8541019662496846, 10 ** 4: 0.339887498948482,
               10 ** 6: 0.9887498948482046},
}


class TestInterval:
    def test_basic(self):
        iv = Interval(-1.0, 3.0)
        assert iv.length == 4.0
        assert iv.contains(-1.0) and iv.contains(3.0) and iv.contains(0.0)
        assert not iv.contains(3.0000001)

    def test_degenerate_rejected(self):
        with pytest.raises(IntervalError):
            Interval(1.0, 1.0)
        with pytest.raises(IntervalError):
            Interval(2.0, 1.0)
        with pytest.raises(IntervalError):
            Interval(0.0, float("inf"))


class TestKronecker:
    @pytest.mark.parametrize("name", sorted(KRONECKER_ORACLE))
    def test_matches_high_precision_oracle(self, name):
        seq = KroneckerSequence(name)
        for n, want in KRONECKER_ORACLE[name].items():
            assert seq.eval(n) == pytest.approx(want, abs=1e-12)

    def test_rational_alpha_is_periodic(self):
        seq = KroneckerSequence(0.5)
        assert seq.prefix(4).tolist() == [0.5, 0.0, 0.5, 0.0]

    def test_eval_matches_prefix_bitwise(self):
        seq = KroneckerSequence("sqrt2-1")
        pre = seq.prefix(200)
        for n in (1, 7, 199, 200):
            assert seq.eval(n) == pre[n - 1]

    def test_prefix_is_consistent_and_read_only(self):
        seq = KroneckerSequence("golden")
        a = seq.prefix(50)
        b = seq.prefix(30)
        assert np.array_equal(a[:30], b)
        assert not a.flags.writeable

    # The named alphas, 20 random ones, and alphas that must keep the %
    # reduction: zero, -0.0 and a negative one (v - trunc(v) would keep
    # a -0.0 and a negative sign), and 3.75, whose products pass 2^63 at
    # the deepest indices below.
    FMOD_ALPHAS = (["sqrt2-1", "sqrt3-1", "sqrt5-1", "golden"]
                   + np.random.default_rng(7).random(20).tolist()
                   + [0.5, 3.75, 0.0, "-0.0", -0.3])

    @pytest.mark.parametrize("alpha", FMOD_ALPHAS)
    def test_values_equal_the_fmod_reduction_bit_for_bit(self, alpha):
        seq = KroneckerSequence(alpha)

        def fmod(ns):
            vals = ns.astype(np.longdouble) * seq.alpha
            return (vals % np.longdouble(1.0)).astype(np.float64)

        # 1 .. 2^16 and a range across chunk edges, read as the walk reads
        for lo, hi in ((0, 1 << 16), (_CHUNK - 5, 3 * _CHUNK + 7)):
            got = np.concatenate(list(seq._chunks(lo, hi)))
            assert _same_bits(got, fmod(np.arange(lo + 1, hi + 1)))
        rng = np.random.default_rng(11)
        for ns in (np.sort(rng.integers(1, 2 ** 40, 4096)),
                   rng.integers(2 ** 50, 2 ** 52, 4096),
                   rng.integers(2 ** 61, 2 ** 62, 64)):
            assert _same_bits(seq._eval_batch(ns), fmod(ns))


class TestVanDerCorput:
    def test_base2_oracle(self):
        seq = VanDerCorputSequence(2)
        got = [seq.eval(n) for n in range(1, 9)]
        assert got == [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875, 0.0625]

    def test_base3_oracle(self):
        seq = VanDerCorputSequence(3)
        got = seq.prefix(8)
        want = [1 / 3, 2 / 3, 1 / 9, 4 / 9, 7 / 9, 2 / 9, 5 / 9, 8 / 9]
        assert got == pytest.approx(want, abs=0)

    def test_bad_base(self):
        with pytest.raises((ValueError, SpecError)):
            VanDerCorputSequence(1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=7),
           st.integers(min_value=1, max_value=5000))
    def test_digit_reversal_inverse(self, base, n):
        # reconstruct n's digits from the radical-inverse value
        x = VanDerCorputSequence(base).eval(n)
        digits = []
        m = n
        while m:
            m, d = divmod(m, base)
            digits.append(d)
        rebuilt = sum(d / base ** (i + 1) for i, d in enumerate(digits))
        assert x == pytest.approx(rebuilt, abs=1e-15)
        assert 0.0 <= x < 1.0

    @staticmethod
    def exact(base, n):
        numer, denom = 0, 1
        while n:
            n, d = divmod(n, base)
            numer, denom = numer * base + d, denom * base
        return float(Fraction(numer, denom))

    def test_no_int64_wrap_near_overflow(self):
        # base**23 overflows int64; the radical inverse is 5/7 + 7**-23
        n = 7 ** 22 + 5
        x = VanDerCorputSequence(7).eval(n)
        assert x == self.exact(7, n)
        assert x == pytest.approx(0.7143, abs=1e-4)

    def test_no_false_range_violation_near_overflow(self):
        n = 2 ** 62
        assert VanDerCorputSequence(3).eval(n) == self.exact(3, n)

    @pytest.mark.parametrize("base", [2, 3, 5, 10, 17])
    def test_int64_core_equals_the_indexed_reference(self, base):
        # a chunk of indices from each offset, the last ending just below
        # the int64 core's bound 2^63 / base
        bound = -(-2 ** 63 // base)
        for lo in (0, 300_000, 2 ** 40, 2 ** 50 - 5000, bound - _CHUNK - 1):
            ns = np.arange(lo + 1, lo + _CHUNK + 1, dtype=np.int64)
            got = VanDerCorputSequence(base)._eval_int64(ns)
            assert _same_bits(got, brute_van_der_corput(base, ns)), lo

    def test_batch_mixes_int64_and_exact_paths(self):
        seq = VanDerCorputSequence(3)
        bound = -(-2 ** 63 // 3)
        ns = np.asarray([1, 2, bound - 1, bound, 2 ** 63 - 1], dtype=np.int64)
        got = seq._eval_batch(ns)
        assert got[:3].tolist() == seq._eval_int64(ns[:3]).tolist()
        assert got.tolist() == [self.exact(3, int(n)) for n in ns]


class TestPeriodicConstant:
    def test_periodic_cycles(self):
        seq = PeriodicSequence([0.0, 1.0])
        assert seq.prefix(5).tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]

    def test_periodic_range_check(self):
        with pytest.raises(RangeViolation):
            PeriodicSequence([0.0, 1.5])

    def test_constant(self):
        seq = ConstantSequence(0.3)
        assert seq.prefix(3).tolist() == [0.3, 0.3, 0.3]

    def test_constant_outside_interval(self):
        with pytest.raises(RangeViolation):
            ConstantSequence(2.0, UNIT)


class TestBlock:
    def test_growth2_boundaries(self):
        # lengths 2, 4, 8, 16, 32 -> cumulative 2, 6, 14, 30, 62
        blk = make_block(0.0, 1.0, 2)
        assert blk.block_ends(100).checkpoints.tolist() == [2, 6, 14, 30, 62]

    def test_growth3_boundaries(self):
        blk = make_block(0.2, 0.8, 3)
        assert blk.block_ends(50).checkpoints.tolist() == [3, 12, 39]

    def test_values_alternate_by_block(self):
        blk = make_block(0.0, 1.0, 2)
        vals = blk.prefix(14)
        # block 1 (n=1..2) low, block 2 (n=3..6) high, block 3 (n=7..14) low
        assert vals[:2].tolist() == [0.0, 0.0]
        assert vals[2:6].tolist() == [1.0] * 4
        assert vals[6:14].tolist() == [0.0] * 8

    def test_low_ratio_at_even_block_ends_is_exactly_one_third(self):
        blk = make_block(0.0, 1.0, 2)
        for n in (6, 30):  # ends of high blocks: low count is n/3 exactly
            count = int(np.sum(blk.prefix(n) == 0.0))
            assert count * 3 == n

    def test_growth_below_two_rejected(self):
        with pytest.raises((ValueError, SpecError)):
            make_block(0.0, 1.0, 1)

    @pytest.mark.parametrize("growth", [2, 3])
    def test_values_at_every_block_end_and_chunk_edge(self, growth):
        # chunks and one-index eval against a walk over the blocks, at each
        # block end +-1 up to 2^22 and at each chunk edge +-1 around them
        blk = make_block(0.25, 0.75, growth)
        ends = blk.block_ends(1 << 22).checkpoints.tolist()
        near = {n + d for n in ends for d in (-1, 0, 1)}
        near |= {c + d for n in ends for c in (n // _CHUNK * _CHUNK,
                                               -(-n // _CHUNK) * _CHUNK)
                 for d in (-1, 0, 1)}
        near = sorted(n for n in near if n >= 1)

        def want(n):
            total, length, block = 0, 1, 0
            while total < n:
                length *= growth
                total += length
                block += 1
            return 0.25 if block % 2 else 0.75

        expected = np.array([want(n) for n in near])
        assert _same_bits(np.array([blk.eval(n) for n in near]), expected)
        for n, value in zip(near, expected):
            for lo in (max(n - 3, 0), n - 1):  # batches from before n, and n
                got = np.concatenate(list(blk.chunks(lo, n + 2)))
                assert got[n - 1 - lo] == value, (lo, n)
        # any batch of indices, in any order, at once
        rng = np.random.default_rng(5)
        ns = rng.permutation(np.array(near, dtype=np.int64))
        assert _same_bits(blk._eval_batch(ns),
                          np.array([want(int(n)) for n in ns]))
        assert blk._eval_batch(np.empty(0, dtype=np.int64)).size == 0


class TestValueSet:
    def test_finite_kinds(self):
        assert make_block(0.25, 0.75, 2).value_set().tolist() == [0.25, 0.75]
        assert PeriodicSequence([0.7, 0.1, 0.7, 0.3]).value_set().tolist() \
            == [0.1, 0.3, 0.7]
        assert ConstantSequence(0.4).value_set().tolist() == [0.4]
        # distinct bit patterns stay distinct
        zeros = PeriodicSequence([0.0, -0.0, 0.0], Interval(-1.0, 1.0))
        assert sorted(np.signbit(zeros.value_set()).tolist()) == [False, True]

    def test_affine_image_maps_with_its_own_arithmetic(self):
        for source in (make_block(0.1, 0.7, 3), PeriodicSequence([0.1, 0.3]),
                       ConstantSequence(0.3)):
            image = AffineImageSequence(source, -1.7, 1.9)
            values = np.concatenate(list(image.chunks(0, 2 * _CHUNK)))
            assert _same_bits(image.value_set(),
                              np.sort(np.unique(values))), source
            assert not image.value_set().flags.writeable
        # a scale that merges two values leaves one
        merged = AffineImageSequence(PeriodicSequence([0.5, 0.5 + 2 ** -53]),
                                     2 ** -52, 0.25)
        assert merged.value_set().tolist() == [0.25 + 2 ** -53]

    def test_unknown_sets(self):
        for seq in (KroneckerSequence("golden"), VanDerCorputSequence(2),
                    FileSequence(np.full(4, 0.5), UNIT, "four"),
                    AffineImageSequence(KroneckerSequence("golden"), 1, 0)):
            assert seq.value_set() is None
        kept = sequences.MaterializedSequence(make_block(0.0, 1.0, 2), 50)
        assert kept.value_set().tolist() == [0.0, 1.0]


class TestAffineImage:
    def test_one_minus_v(self):
        base = KroneckerSequence("sqrt2-1")
        mirrored = AffineImageSequence(base, -1.0, 1.0)
        pre = base.prefix(100)
        assert np.array_equal(mirrored.prefix(100), 1.0 - pre)
        assert (mirrored.interval.a, mirrored.interval.b) == (0.0, 1.0)

    def test_interval_follows_image(self):
        base = ConstantSequence(0.5)
        scaled = AffineImageSequence(base, 2.0, 1.0)
        assert (scaled.interval.a, scaled.interval.b) == (1.0, 3.0)
        assert scaled.eval(1) == 2.0

    def test_zero_scale_rejected(self):
        with pytest.raises(SpecError):
            AffineImageSequence(ConstantSequence(0.5), 0.0, 0.0)


class TestFileSequences(object):
    def test_round_trip(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("0.25\n0.5\n0.75\n")
        seq = load_sequence(path, UNIT)
        assert seq.prefix(3).tolist() == [0.25, 0.5, 0.75]

    def test_exhaustion(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("0.25\n")
        seq = load_sequence(path, UNIT)
        with pytest.raises(SequenceExhausted):
            seq.prefix(2)

    def test_bad_line_cited(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("0.25\nnot-a-number\n")
        with pytest.raises(SequenceFileError, match="line 2"):
            load_sequence(path, UNIT)

    def test_out_of_range_cited(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("0.25\n1.5\n")
        with pytest.raises((SequenceFileError, RangeViolation), match="line 2"):
            load_sequence(path, UNIT)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("")
        with pytest.raises(SequenceFileError):
            load_sequence(path, UNIT)


class TestFromSpec:
    def test_kronecker_by_name(self):
        seq = from_spec({"kind": "kronecker", "params": {"alpha": "sqrt2-1"}})
        assert seq.eval(1) == pytest.approx(0.41421356237309503, abs=1e-15)

    def test_nested_affine(self):
        seq = from_spec({
            "kind": "affine_image",
            "params": {"c": -1.0, "d": 1.0,
                       "source": {"kind": "kronecker",
                                  "params": {"alpha": "sqrt2-1"}}}})
        assert seq.eval(1) == pytest.approx(1 - 0.41421356237309503, abs=1e-15)

    def test_missing_param_cites_path(self):
        with pytest.raises(SpecError, match=r"sequences\[0\]\.params\.alpha"):
            from_spec({"kind": "kronecker"}, where="sequences[0]")

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown generator"):
            from_spec({"kind": "fibonacci"})

    def test_bad_interval_cited(self):
        with pytest.raises(SpecError, match=r"seq\.interval"):
            from_spec({"kind": "constant", "interval": [1, 1],
                       "params": {"value": 1}}, where="seq")

    @pytest.mark.parametrize("obj, path", [
        ({"kind": "block", "params": {"low": 0, "high": 1, "growth": 2.5}},
         r"seq\.params\.growth: expected an integer"),
        ({"kind": "van_der_corput", "params": {"base": 3.9}},
         r"seq\.params\.base: expected an integer"),
        ({"kind": "van_der_corput", "params": {"base": "3"}},
         r"seq\.params\.base: expected an integer"),
        ({"kind": "constant", "params": {"value": True}},
         r"seq\.params\.value: expected a number"),
        ({"kind": "constant", "params": {"value": 0.5, "scale": 2}},
         r"seq\.params\.scale: unknown parameter for kind 'constant'"),
        ({"kind": "constant", "intervl": [0, 2], "params": {"value": 0.5}},
         r"seq\.intervl: unknown field"),
        ({"kind": "kronecker", "params": {"alpha": [1]}},
         r"seq\.params\.alpha: expected a number"),
        ({"kind": "file", "params": {"path": 5}},
         r"seq\.params\.path: expected a string"),
        ({"kind": "constant", "interval": ["0", True],
          "params": {"value": 0.5}},
         r"seq\.interval\[0\]: expected a number, got '0'"),
        ({"kind": "constant", "interval": [0, True],
          "params": {"value": 0.5}},
         r"seq\.interval\[1\]: expected a number, got True"),
        ({"kind": "constant", "interval": [0, 10 ** 400],
          "params": {"value": 0.5}},
         r"seq\.interval\[1\]: number too large for a float"),
        ({"kind": "block", "params": {"low": 0, "high": 1, "growth": 1}},
         r"seq\.params: block growth must be an integer >= 2, got 1"),
    ])
    def test_rejections_cite_their_path(self, obj, path):
        # each of these used to be built silently or fail with foreign text
        with pytest.raises(SpecError, match="^" + path):
            from_spec(obj, where="seq")

    def test_nested_source_errors_cite_nested_path(self):
        with pytest.raises(SpecError, match=r"^s\.params\.source\.params\.junk"):
            from_spec({"kind": "affine_image",
                       "params": {"c": 1, "d": 0, "source": {
                           "kind": "constant",
                           "params": {"value": 0.5, "junk": 1}}}}, where="s")

    def test_normalized_form(self):
        assert normalize_spec({"kind": "van_der_corput"}) == {
            "kind": "van_der_corput", "interval": [0.0, 1.0],
            "params": {"base": 2}}
        norm = normalize_spec({"kind": "block", "interval": [0, 2],
                               "params": {"growth": 3.0, "high": 2, "low": 0}})
        assert norm == {"kind": "block", "interval": [0.0, 2.0],
                        "params": {"low": 0.0, "high": 2.0, "growth": 3}}
        assert list(norm["params"]) == ["low", "high", "growth"]
        assert type(norm["params"]["growth"]) is int

    def test_range_checks_stay_with_constructors(self):
        spec = {"kind": "block", "params": {"low": 1, "high": 0, "growth": 2}}
        normalize_spec(spec)  # shape and types are fine
        with pytest.raises(SpecError, match="requires low < high"):
            from_spec(spec)

    def test_every_kind_builds_from_its_normal_form(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("0.25\n0.75\n")
        kron = {"kind": "kronecker", "params": {"alpha": "golden"}}
        specs = {
            "kronecker": kron,
            "van_der_corput": {"kind": "van_der_corput"},
            "periodic": {"kind": "periodic", "params": {"values": [0, 1]}},
            "constant": {"kind": "constant", "params": {"value": 0.5}},
            "block": {"kind": "block",
                      "params": {"low": 0, "high": 1, "growth": 2}},
            "affine_image": {"kind": "affine_image",
                             "params": {"c": -1, "d": 1, "source": kron}},
            "file": {"kind": "file", "params": {"path": str(path)}},
        }
        assert set(specs) == set(SEQUENCE_KINDS)
        for kind, spec in specs.items():
            seq = from_spec(spec)
            again = from_spec(normalize_spec(spec))
            assert seq.kind == again.kind == kind
            assert np.array_equal(seq.prefix(2), again.prefix(2))


class TestSubsequenceIndex:
    def test_validation(self):
        with pytest.raises(CheckpointError):
            SubsequenceIndex([])
        with pytest.raises(CheckpointError):
            SubsequenceIndex([0, 1])
        with pytest.raises(CheckpointError):
            SubsequenceIndex([1, 3, 3])
        # a difference of int64 checkpoints would wrap to a positive one
        with pytest.raises(CheckpointError, match="strictly increasing"):
            SubsequenceIndex([1, 2 ** 62, -(2 ** 63) + 5])

    @pytest.mark.parametrize("checkpoints, top", [
        ([1, 2 ** 63], 2 ** 63), ([1, 2 ** 64 + 3], 2 ** 64 + 3),
        ([2 ** 63], 2 ** 63),
        (np.array([1, 2 ** 63], dtype=np.uint64), 2 ** 63),
        (np.array([2 ** 64 - 1], dtype=np.uint64), 2 ** 64 - 1),
    ], ids=["int list", "past uint64", "alone", "uint64", "uint64 max"])
    def test_checkpoints_past_int64_are_named(self, checkpoints, top):
        # a Python int list raised numpy's bare OverflowError, and a
        # uint64 array wrapped and was rejected as not increasing
        with pytest.raises(CheckpointError,
                           match=f"^checkpoints must be < 2\\^63, got {top}$"):
            SubsequenceIndex(checkpoints)
        assert SubsequenceIndex([1, 2 ** 63 - 1]).deepest == 2 ** 63 - 1

    @pytest.mark.parametrize("checkpoints, message", [
        ([1, -2 ** 64], "checkpoints must be strictly increasing"),
        ([-2 ** 64], "checkpoints must start at 1 or later, got "
                     f"{-2 ** 64}"),
    ], ids=["mixed list", "alone"])
    def test_checkpoints_below_int64_are_named(self, checkpoints, message):
        # numpy raised its bare OverflowError; the messages are those of a
        # negative int64 in the same place
        with pytest.raises(CheckpointError, match=f"^{message}$"):
            SubsequenceIndex(checkpoints)
        with pytest.raises(CheckpointError, match=f"^{message[:30]}"):
            SubsequenceIndex([c if c > 0 else -1 for c in checkpoints])

    def test_accessors(self):
        kappa = SubsequenceIndex([1, 4, 9], rule="squares", name="sq")
        assert len(kappa) == 3
        assert kappa.deepest == 9
        assert list(kappa) == [1, 4, 9]
        assert kappa.label == "sq"
        assert kappa.to_json_obj()["checkpoints"].tolist() == [1, 4, 9]

    def test_take_and_equality(self):
        kappa = SubsequenceIndex([2, 4, 8, 16])
        sub = kappa.take(np.array([0, 2]))
        assert sub == SubsequenceIndex([2, 8])
        assert sub != kappa

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=10 ** 6),
                    min_size=1, max_size=32, unique=True))
    def test_sorted_checkpoints_accepted(self, ks):
        kappa = SubsequenceIndex(sorted(ks))
        assert kappa.deepest == max(ks)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["sqrt2-1", "sqrt3-1", "golden"]),
       st.integers(min_value=1, max_value=3000))
def test_kronecker_stays_in_unit_interval(name, n):
    x = KroneckerSequence(name).eval(n)
    assert 0.0 <= x < 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=400))
def test_prefix_consistency_across_lengths(n1, n2):
    seq = VanDerCorputSequence(2)
    a, b = seq.prefix(n1), seq.prefix(n2)
    m = min(n1, n2)
    assert np.array_equal(a[:m], b[:m])


# -- chunks and chunked prefixes -----------------------------------------------

def _one_of_each_kind():
    rng = np.random.default_rng(7)
    seqs = {
        "kronecker": KroneckerSequence("sqrt2-1"),
        "van_der_corput": VanDerCorputSequence(3),
        "periodic": PeriodicSequence([0.1, 0.7, 0.3]),
        "constant": ConstantSequence(0.4),
        "block": make_block(0.0, 1.0, 2),
        "affine_image": AffineImageSequence(KroneckerSequence("golden"),
                                            -1.0, 1.0),
        "file": FileSequence(rng.random(3 * _CHUNK + 10), UNIT, "random"),
    }
    assert sorted(seqs) == sorted(SEQUENCE_KINDS)
    return seqs


def _one_shot(seq, n):
    return seq._eval_batch(np.arange(1, n + 1, dtype=np.int64))


@pytest.mark.parametrize("kind", sorted(SEQUENCE_KINDS))
def test_prefix_equals_one_shot_evaluation_bitwise(kind):
    for n in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3):
        seq = _one_of_each_kind()[kind]
        assert _same_bits(seq.prefix(n), _one_shot(seq, n)), n
    # one instance read at three lengths, then at every length again
    seq = _one_of_each_kind()[kind]
    lengths = (1000, _CHUNK + 5, 3 * _CHUNK + 7)
    for n in lengths:
        seq.prefix(n)
    want = _one_shot(seq, lengths[-1])
    for n in (1, *lengths):
        assert _same_bits(seq.prefix(n), want[:n]), n


def test_range_violation_in_a_later_chunk_cites_its_index():
    values = np.full(3 * _CHUNK, 0.5)
    bad = 2 * _CHUNK + 10  # 0-based, so n = bad + 1
    values[bad] = 2.0
    seq = FileSequence(values, UNIT, "spiked")
    seq.prefix(_CHUNK)
    with pytest.raises(RangeViolation, match=f"at n={bad + 1} "):
        seq.prefix(3 * _CHUNK)
    # the prefix short of the bad value is still there
    assert seq.prefix(bad).size == bad
    with pytest.raises(RangeViolation, match=f"at n={bad + 1} "):
        seq.prefix(bad + 1)


def test_chunks_evaluate_each_index_once_in_aligned_blocks():
    seq = KroneckerSequence("golden")
    calls = []
    evaluate = seq._eval_batch
    seq._eval_batch = lambda ns: (calls.append(ns.tolist()), evaluate(ns))[1]
    lo, hi = 100, 2 * _CHUNK + 300
    got = list(seq.chunks(lo, hi))
    # blocks end at multiples of _CHUNK: one partial block, one whole
    # block, and the tail
    assert calls == [list(range(lo + 1, _CHUNK + 1)),
                     list(range(_CHUNK + 1, 2 * _CHUNK + 1)),
                     list(range(2 * _CHUNK + 1, hi + 1))]
    assert [c.size for c in got] == [len(c) for c in calls]
    assert list(seq.chunks(5, 5)) == []
    with pytest.raises(IndexError):
        seq.chunks(6, 5)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SEQUENCE_KINDS)),
       st.integers(0, 3 * _CHUNK + 10), st.integers(0, 2 * _CHUNK))
def test_chunks_equal_prefix_bitwise_across_chunk_edges(kind, lo, size):
    seq = _one_of_each_kind()[kind]
    hi = min(lo + size, 3 * _CHUNK + 10)
    chunks = list(seq.chunks(lo, hi))
    assert all(c.size <= _CHUNK for c in chunks)
    got = np.concatenate(chunks) if chunks else np.empty(0)
    want = seq.prefix(hi)[lo:] if hi else np.empty(0)
    assert _same_bits(got, want)


def test_chunks_past_a_finite_end_fail_at_once():
    seq = FileSequence(np.full(10, 0.5), UNIT, "ten")
    calls = []
    seq._eval_batch = lambda ns: calls.append(ns)
    with pytest.raises(SequenceExhausted,
                       match=r"prefix of length 11 beyond sequence length 10"):
        seq.chunks(0, 11)
    assert calls == []


def test_walk_steps_read_the_same_values_in_any_share(monkeypatch, forks):
    # each step reads its own aligned chunks, so the steps walked here and
    # those a worker walks together read every value, bit for bit: the
    # block sequence to the walk's depth, in each step's out, and the
    # other two deeper, into their tallies
    seqs = [KroneckerSequence("golden"), make_block(0.0, 1.0, 2),
            FileSequence(np.linspace(0.0, 1.0, 5 * _CHUNK), UNIT, "ramp")]
    depths = [7 * _CHUNK + 5, 2 * _CHUNK + 1, 5 * _CHUNK]
    points = np.linspace(0.05, 0.95, 19)
    rows = {r: sorted(set(np.linspace(1, depths[r], 40).astype(int)))
            for r in (0, 2)}
    with pytest.raises(SequenceExhausted):
        next(forkwalk.steps(seqs, 5 * _CHUNK + 1, None, []))
    assert forks == []

    def compute(start, values):
        out = np.full((len(seqs), _CHUNK), np.nan)
        for row, v in zip(out, values):
            if v is not None:
                row[:v.size] = v
        return out

    def run():
        tallies = [Tally(points, rows[r], [r]) for r in rows]
        outs = {start: None if out is None else out.copy()
                for start, out in forkwalk.steps(seqs, depths[1], compute,
                                                 tallies)}
        return outs, [t.table() for t in tallies]

    (want, want_tables), (got, got_tables) = _serial_and_forked(
        monkeypatch, forks, run, 1)
    steps = -(-max(depths) // _CHUNK)
    assert list(got) == list(want) == [k * _CHUNK for k in range(steps)]
    for start, out in got.items():
        assert (out is None) == (start >= depths[1])
        assert out is None or _same_bits(out, want[start])
        for r, row in enumerate([] if out is None else out):
            stop = min(start + _CHUNK, depths[r])
            assert _same_bits(row[:stop - start],
                              seqs[r].prefix(stop)[start:])
            assert np.isnan(row[stop - start:]).all()
    for r, got_table, want_table in zip(rows, got_tables, want_tables):
        assert np.array_equal(got_table, want_table)
        assert np.array_equal(got_table, brute_grid_counts(
            [seqs[r]], points, rows[r]))


def test_materialized_sequence_reads_its_kept_terms():
    # chunks, prefixes and eval within the kept terms are slices of them,
    # bit for bit the source's; anything past them is the source's
    source = KroneckerSequence("golden")
    calls = []
    evaluate = source._eval_batch
    source._eval_batch = lambda ns: (calls.append(ns.size), evaluate(ns))[1]
    kept = sequences.MaterializedSequence(source, 2 * _CHUNK + 5)
    assert sum(calls) == 2 * _CHUNK + 5
    assert (kept.label, kept.interval, kept.length) == \
        (source.label, source.interval, None)
    calls.clear()
    got = list(kept.chunks(100, 2 * _CHUNK + 5))
    assert [c.size for c in got] == [_CHUNK - 100, _CHUNK, 5]
    assert _same_bits(np.concatenate(got), kept.values[100:])
    assert _same_bits(kept.prefix(_CHUNK + 1),
                      source.prefix(_CHUNK + 1)[:_CHUNK + 1])
    assert kept.eval(7) == source.eval(7)
    calls.clear()
    assert _same_bits(kept.prefix(3 * _CHUNK),
                      source.prefix(3 * _CHUNK))
    # past the kept terms, only the blocks from the last kept block edge
    # on are the source's: the third block here, then all three blocks of
    # the source's own prefix
    assert calls == [_CHUNK] * 4
    calls.clear()
    got = list(kept.chunks(_CHUNK + 3, 4 * _CHUNK - 1))
    assert [c.size for c in got] == [_CHUNK - 3, _CHUNK, _CHUNK - 1]
    assert calls == [_CHUNK, _CHUNK - 1]
    assert _same_bits(np.concatenate(got),
                      source.prefix(4 * _CHUNK - 1)[_CHUNK + 3:])
    # a finite source keeps what it has, and fails past its end as before
    short = sequences.MaterializedSequence(
        FileSequence(np.full(10, 0.5), UNIT, "ten"), 100)
    assert short.values.size == 10 and short.length == 10
    with pytest.raises(SequenceExhausted,
                       match=r"prefix of length 11 beyond sequence length 10"):
        short.prefix(11)


# -- vectorized file parsing ---------------------------------------------------

_PADDING = st.sampled_from(["", " ", "  ", "\t", " \t ", " "])
_NUMBER_LINES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-1e3, max_value=1e3).map(lambda x: f"{x:.17e}"),
    st.builds(lambda m, e: f"{m}e{e}", st.integers(-10 ** 6, 10 ** 6),
              st.integers(-330, 330)),
    st.builds(lambda m, e: f"{m}E+{e}", st.integers(0, 999),
              st.integers(0, 5)),
    st.sampled_from(["1_0", "1_000.5", "0.000_1", "-2_5e-1_0", ".5", "5.",
                     "+0.25", "-0.0", "1e400", "-1e400", "1e-400", "nan",
                     "inf"]),
)
_BAD_LINES = st.sampled_from(["", "   ", "abc", "1,5", "1__0", "_1", "0x10",
                              "1 2", "0.1e"])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    st.builds(lambda pre, x, post: pre + x + post,
              _PADDING, _NUMBER_LINES, _PADDING),
    _BAD_LINES), min_size=1, max_size=40))
def test_vectorized_file_parse_equals_float_per_line(lines):
    interval = Interval(-1e300, 1e300)
    parsed, first_bad, error, unparsable = [], None, None, False
    for i, line in enumerate(lines):
        try:
            x = float(line)
        except ValueError:
            unparsable = True
            if first_bad is None:
                first_bad, error = i + 1, SequenceFileError
            continue
        parsed.append(x)
        if not interval.contains(x) and first_bad is None:
            first_bad, error = i + 1, RangeViolation
    fallback = []
    first_bad_line = sequences._first_bad_line
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "values.txt"
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(
                sequences, "_first_bad_line",
                lambda *args: (fallback.append(1), first_bad_line(*args))[1]):
            if first_bad is None:
                seq = load_sequence(path, interval)
                assert _same_bits(seq.values, parsed)
            else:
                with pytest.raises(error, match=f": line {first_bad}: "):
                    load_sequence(path, interval)
    # the per-line pass runs only to find a line that does not parse
    assert bool(fallback) == unparsable


def test_range_errors_print_plain_floats(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("0.25\n1.5\n")
    with pytest.raises(RangeViolation,
                       match=r": line 2: value 1\.5 outside \[0\.0, 1\.0\]$"):
        load_sequence(path, UNIT)
    path.write_text("0.25\n1.5\nx\n")
    with pytest.raises(RangeViolation, match=r": line 2: value 1\.5 outside"):
        load_sequence(path, UNIT)
    for bad in ("-0.5", "nan"):
        path.write_text(f"0.25\n{bad}\n0.5\n")
        with pytest.raises(RangeViolation, match=f": line 2: value {bad} "):
            load_sequence(path, UNIT)
    seq = FileSequence(np.array([0.5, 2.0]), UNIT, "spiked")
    with pytest.raises(RangeViolation,
                       match=r"^file\(spiked\): value 2\.0 at n=2 lies outside"):
        seq.prefix(2)
    with pytest.raises(SpecError, match=r"^sequences\[0\]\.params: periodic "
                       r"value nan outside \[0\.0, 1\.0\]$"):
        from_spec({"kind": "periodic", "params": {"values": [math.nan, 0.5]}},
                  "sequences[0]")
    with pytest.raises(RangeViolation,
                       match=r"^periodic value 1\.5 outside \[0\.0, 1\.0\]$"):
        PeriodicSequence(np.array([0.5, 1.5]))
    with pytest.raises(RangeViolation,
                       match=r"^constant 2\.0 outside \[0\.0, 1\.0\]$"):
        ConstantSequence(np.float64(2.0))
    cdf = empirical_cdf(PeriodicSequence([0.0, 0.5]), SubsequenceIndex([2]))
    with pytest.raises(ValueError,
                       match=r"^integrand is not finite at jump point 0\.5$"):
        stieltjes(lambda x: np.where(x > 0.25, np.inf, 0.0), cdf)


def test_nan_values_fail_the_range_check():
    # NaN compares false both ways, so "below a or above b" let it through
    seq = FileSequence(np.array([0.5, np.nan, 0.25]), UNIT, "holed")
    assert seq.eval(1) == 0.5
    for read in (lambda: seq.eval(2), lambda: seq.prefix(3),
                 lambda: list(seq.chunks(0, 3))):
        with pytest.raises(RangeViolation,
                           match=r"^file\(holed\): value nan at n=2 lies "
                                 r"outside \[0\.0, 1\.0\]$"):
            read()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "NaN", math.nan,
                                   math.inf, -math.inf])
def test_non_finite_alpha_is_rejected(alpha):
    with pytest.raises(SpecError, match=r"^kronecker alpha must be finite, "
                       rf"got {re.escape(repr(alpha))}$"):
        KroneckerSequence(alpha)
    with pytest.raises(SpecError, match=r"^seq\.params: kronecker alpha must "
                                        r"be finite"):
        from_spec({"kind": "kronecker", "params": {"alpha": alpha}}, "seq")
