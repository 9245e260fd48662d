"""Generator and checkpoint-index unit tests.

Irrational-rotation values are checked against literals precomputed with
50-digit arithmetic; radical-inverse values against the exact dyadic/triadic
fractions.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statindep import (
    AffineImageSequence,
    BlockSequence,
    CheckpointError,
    ConstantSequence,
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
    from_spec,
    load_sequence,
    make_block,
)

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
        assert seq.prefix(4).values.tolist() == [0.5, 0.0, 0.5, 0.0]

    def test_eval_matches_prefix_bitwise(self):
        seq = KroneckerSequence("sqrt2-1")
        pre = seq.prefix(200).values
        for n in (1, 7, 199, 200):
            assert seq.eval(n) == pre[n - 1]

    def test_prefix_cache_is_reused(self):
        seq = KroneckerSequence("golden")
        a = seq.prefix(50).values
        b = seq.prefix(30).values
        assert np.array_equal(a[:30], b)
        assert not a.flags.writeable


class TestVanDerCorput:
    def test_base2_oracle(self):
        seq = VanDerCorputSequence(2)
        got = [seq.eval(n) for n in range(1, 9)]
        assert got == [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875, 0.0625]

    def test_base3_oracle(self):
        seq = VanDerCorputSequence(3)
        got = seq.prefix(8).values
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
        assert seq.prefix(5).values.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]

    def test_periodic_range_check(self):
        with pytest.raises(RangeViolation):
            PeriodicSequence([0.0, 1.5])

    def test_constant(self):
        seq = ConstantSequence(0.3)
        assert seq.prefix(3).values.tolist() == [0.3, 0.3, 0.3]

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
        vals = blk.prefix(14).values
        # block 1 (n=1..2) low, block 2 (n=3..6) high, block 3 (n=7..14) low
        assert vals[:2].tolist() == [0.0, 0.0]
        assert vals[2:6].tolist() == [1.0] * 4
        assert vals[6:14].tolist() == [0.0] * 8

    def test_low_ratio_at_even_block_ends_is_exactly_one_third(self):
        blk = make_block(0.0, 1.0, 2)
        for n in (6, 30):  # ends of high blocks: low count is n/3 exactly
            count = int(np.sum(blk.prefix(n).values == 0.0))
            assert count * 3 == n

    def test_growth_below_two_rejected(self):
        with pytest.raises((ValueError, SpecError)):
            make_block(0.0, 1.0, 1)


class TestAffineImage:
    def test_one_minus_v(self):
        base = KroneckerSequence("sqrt2-1")
        mirrored = AffineImageSequence(base, -1.0, 1.0)
        pre = base.prefix(100).values
        assert np.array_equal(mirrored.prefix(100).values, 1.0 - pre)
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
        assert seq.prefix(3).values.tolist() == [0.25, 0.5, 0.75]

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


class TestSubsequenceIndex:
    def test_validation(self):
        with pytest.raises(CheckpointError):
            SubsequenceIndex([])
        with pytest.raises(CheckpointError):
            SubsequenceIndex([0, 1])
        with pytest.raises(CheckpointError):
            SubsequenceIndex([1, 3, 3])

    def test_accessors(self):
        kappa = SubsequenceIndex([1, 4, 9], rule="squares", name="sq")
        assert len(kappa) == 3
        assert kappa.deepest == 9
        assert list(kappa) == [1, 4, 9]
        assert kappa.label == "sq"
        assert kappa.to_json_obj()["checkpoints"] == [1, 4, 9]

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
    a, b = seq.prefix(n1).values, seq.prefix(n2).values
    m = min(n1, n2)
    assert np.array_equal(a[:m], b[:m])
