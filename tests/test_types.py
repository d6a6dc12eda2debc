import numpy as np
import pytest

from bitglm import CensoredDataset, DesignSet, DomainError, ObservationDesign, ParameterVector


class TestParameterVector:
    def test_accepts_valid(self):
        pv = ParameterVector([0.5, 2.0], ("unbounded", "positive"))
        assert pv.k == 2
        assert pv.values.flags.writeable is False

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            ParameterVector([1.0, 2.0], ("unbounded",))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(DomainError):
            ParameterVector([bad], ("positive",))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            ParameterVector([np.nan], ("unbounded",))

    def test_rejects_unknown_constraint(self):
        with pytest.raises(DomainError):
            ParameterVector([1.0], ("somewhere",))

    def test_with_values_revalidates(self):
        pv = ParameterVector([1.0], ("positive",))
        assert pv.with_values([2.0]).values[0] == 2.0
        with pytest.raises(DomainError):
            pv.with_values([-2.0])


class TestObservationDesign:
    def test_shapes(self):
        ds = ObservationDesign([[1.0, 0.0], [0.0, -0.5]], tau=1.5)
        assert (ds.d, ds.k) == (2, 2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ObservationDesign([[np.inf]], tau=0.0)
        with pytest.raises(ValueError):
            ObservationDesign([[1.0]], tau=np.nan)

    def test_scalar_design_promoted(self):
        ds = ObservationDesign(2.0, tau=0.0)
        assert ds.V.shape == (1, 1)


class TestCensoredDataset:
    def test_bits_validated(self):
        designs = DesignSet(np.ones((2, 1, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            CensoredDataset([1, 0], designs)
        data = CensoredDataset([1, -1], designs)
        assert data.n == 2

    @pytest.mark.parametrize(
        "bits",
        [[1.0, 0.5], [-1.0, 1.5], [True, False], [0, 1], [0, 0], [np.nan, 1.0], [1, 2]],
    )
    def test_bits_other_than_signs_raise(self, bits):
        designs = DesignSet(np.ones((2, 1, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="bits must be -1 or"):
            CensoredDataset(bits, designs)

    @pytest.mark.parametrize("bits", [[1.0, -1.0], [True, True], np.array([-1, 1], np.int8)])
    def test_bits_equal_to_signs_are_kept(self, bits):
        data = CensoredDataset(bits, DesignSet(np.ones((2, 1, 1)), np.zeros(2)))
        assert data.bits.dtype == np.int8
        assert np.array_equal(data.bits, np.asarray(bits, dtype=float))

    def test_mixed_design_shapes_rejected(self):
        pair = [
            (1, ObservationDesign([[1.0]], 0.0)),
            (-1, ObservationDesign([[1.0, 0.0]], 0.0)),
        ]
        with pytest.raises(ValueError):
            CensoredDataset.from_observations(pair)

    def test_from_observations_roundtrip(self):
        pair = [
            (1, ObservationDesign([[1.0]], 0.5)),
            (-1, ObservationDesign([[2.0]], -0.5)),
        ]
        data = CensoredDataset.from_observations(pair)
        back = list(data.observations())
        assert back[0][0] == 1 and back[1][0] == -1
        assert back[1][1].tau == -0.5

    def test_permuted(self):
        designs = DesignSet(np.arange(3, dtype=float).reshape(3, 1, 1), np.arange(3.0))
        data = CensoredDataset([1, -1, 1], designs)
        perm = data.permuted([2, 0, 1])
        assert list(perm.bits) == [1, 1, -1]
        assert list(perm.designs.taus) == [2.0, 0.0, 1.0]

    def test_length_mismatch(self):
        designs = DesignSet(np.ones((2, 1, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            CensoredDataset([1], designs)

    def test_aux_all_or_none(self):
        pair = [
            (1, ObservationDesign([[1.0]], 0.0, aux=1.0)),
            (1, ObservationDesign([[1.0]], 0.0)),
        ]
        with pytest.raises(ValueError):
            CensoredDataset.from_observations(pair)

    def test_immutability(self):
        designs = DesignSet(np.ones((1, 1, 1)), np.zeros(1))
        data = CensoredDataset([1], designs)
        with pytest.raises(ValueError):
            data.bits[0] = -1
        with pytest.raises(ValueError):
            data.designs.V[0, 0, 0] = 5.0


class TestCounts:
    def test_counts_validated(self):
        designs = DesignSet(np.ones((2, 1, 1)), np.zeros(2))
        for bad in ([1], [1, 0], [1, 1.5], [1, -2]):
            with pytest.raises(ValueError):
                CensoredDataset([1, -1], designs, bad)
        data = CensoredDataset([1, -1], designs, [3, 2.0])
        assert data.counts.dtype == np.int64
        assert (data.n, len(data), data.total) == (2, 2, 5)
        with pytest.raises(ValueError):
            data.counts[0] = 7

    def test_permuted_carries_counts(self):
        designs = DesignSet(np.ones((3, 1, 1)), np.arange(3.0))
        data = CensoredDataset([1, -1, 1], designs, [1, 2, 3])
        assert list(data.permuted([2, 0, 1]).counts) == [3, 1, 2]

    def test_one_each_by_default(self):
        data = CensoredDataset([1, -1], DesignSet(np.ones((2, 1, 1)), np.zeros(2)))
        assert list(data.counts) == [1, 1] and data.counts.dtype == np.int64

    def test_single_carries_count(self):
        designs = DesignSet(np.ones((3, 1, 1)), np.arange(3.0))
        data = CensoredDataset([1, -1, 1], designs, [1, 2, 3])
        assert (data.single(1).counts.tolist(), data.single(1).total) == ([2], 2)

    def test_observations_yield_each_row_once(self):
        designs = DesignSet(np.ones((2, 1, 1)), np.arange(2.0))
        data = CensoredDataset([1, -1], designs, [4, 1])
        assert [b for b, _ in data.observations()] == [1, -1]


def _mixed_rows(rng, n=60):
    """Rows over 3 designs (2 x 2 V, tau, aux) with both bits, shuffled."""
    V = np.array([[[1.0, 0.0], [0.0, -0.5]], [[2.0, 0.0], [0.0, -0.5]], [[1.0, 0.0], [0.0, -0.5]]])
    taus = np.array([0.5, 0.5, 0.5])
    aux = np.array([0.0, 0.0, 1.0])
    pick = rng.integers(0, 3, n)
    return CensoredDataset(rng.choice([-1, 1], n), DesignSet(V[pick], taus[pick], aux[pick]))


class TestGrouped:
    def test_merges_identical_rows_only(self, rng):
        data = _mixed_rows(rng)
        g = data.grouped()
        # every (design, bit) pair once; V, tau and aux each split groups
        keys = {
            (data.designs.V[i].tobytes(), data.designs.aux[i], data.bits[i]) for i in range(data.n)
        }
        assert g.n == len(keys)
        assert g.total == data.total == data.n
        for j in range(g.n):
            same = (
                np.all(data.designs.V == g.designs.V[j], axis=(1, 2))
                & (data.designs.taus == g.designs.taus[j])
                & (data.designs.aux == g.designs.aux[j])
                & (data.bits == g.bits[j])
            )
            assert g.counts[j] == np.count_nonzero(same)

    def test_permutation_gives_identical_groups(self, rng):
        data = _mixed_rows(rng)
        g = data.grouped()
        for _ in range(5):
            h = data.permuted(rng.permutation(data.n)).grouped()
            assert np.array_equal(g.bits, h.bits)
            assert np.array_equal(g.counts, h.counts)
            assert np.array_equal(g.designs.V, h.designs.V)
            assert np.array_equal(g.designs.taus, h.designs.taus)
            assert np.array_equal(g.designs.aux, h.designs.aux)

    def test_regrouping_adds_counts(self, rng):
        data = _mixed_rows(rng)
        g = data.grouped()
        doubled = CensoredDataset(g.bits, g.designs, 2 * g.counts).permuted(np.arange(g.n)[::-1])
        again = doubled.grouped()
        assert np.array_equal(again.counts, 2 * g.counts)
        assert np.array_equal(again.designs.V, g.designs.V)

    def test_single_group_and_signed_zero(self):
        V = np.array([[[0.0]], [[-0.0]], [[0.0]]])
        data = CensoredDataset([1, 1, 1], DesignSet(V, [1.0, 1.0, 1.0]))
        g = data.grouped()
        assert (g.n, list(g.counts)) == (1, [3])
        h = data.permuted([1, 0, 2]).grouped()
        assert np.array_equal(g.designs.V, h.designs.V)
        assert not np.signbit(h.designs.V).any()


class TestDesignTally:
    def test_counts_per_design_over_rows_and_groups(self, rng):
        data = _mixed_rows(rng, n=80)
        doubled = CensoredDataset(data.bits, data.designs, 2 * data.counts)
        shuffled = doubled.permuted(rng.permutation(80))
        for d, scale in ((data, 1), (data.grouped(), 1), (shuffled, 2)):
            rows, totals, plus = d.design_tally()
            assert len(rows) == 3  # (w, aux): (1, 0), (2, 0), (1, 1); one threshold
            for r, total, p in zip(rows, totals, plus):
                same = np.all(data.designs.V == d.designs.V[r], axis=(1, 2)) & (
                    data.designs.aux == d.designs.aux[r]
                )
                assert total == scale * np.count_nonzero(same)
                assert p == scale * np.count_nonzero(same & (data.bits > 0))

    def test_distinct_thresholds_make_one_design_per_row(self):
        V = np.ones((4, 1, 1))
        data = CensoredDataset([1, -1, -1, 1], DesignSet(V, [0.3, -1.0, 2.0, 0.5]), [2, 1, 3, 1])
        rows, totals, plus = data.design_tally()
        assert list(rows) == [1, 0, 3, 2]  # sorted by threshold
        assert list(totals) == [1, 2, 1, 3]
        assert list(plus) == [0, 2, 1, 0]

    def test_shared_threshold_split_by_design(self):
        V = np.array([[[1.0]], [[2.0]], [[1.0]], [[2.0]], [[1.0]]])
        data = CensoredDataset([1, 1, -1, 1, 1], DesignSet(V, [0.5, 0.5, 0.5, 0.5, 0.7]))
        rows, totals, plus = data.design_tally()
        got = sorted(
            (float(data.designs.V[r, 0, 0]), float(data.designs.taus[r]), int(t), int(p))
            for r, t, p in zip(rows, totals, plus)
        )
        assert got == [(1.0, 0.5, 2, 1), (1.0, 0.7, 1, 1), (2.0, 0.5, 2, 2)]
