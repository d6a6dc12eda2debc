import numpy as np
import pytest

from bitglm import CensoredDataset, ConfigError, DesignSet, DomainError, models
from bitglm.montecarlo import ExperimentConfig, Rule

from _oracles import lexsort_design_tally, lexsort_grouped


class TestDesignSet:
    def test_shapes(self):
        designs = DesignSet(np.ones((3, 2, 4)), np.zeros(3), np.arange(3.0))
        assert (designs.n, len(designs), designs.d, designs.k) == (3, 3, 2, 4)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            DesignSet(np.full((1, 1, 1), np.inf), np.zeros(1))
        with pytest.raises(ValueError, match="finite"):
            DesignSet(np.ones((1, 1, 1)), [np.nan])
        with pytest.raises(ValueError, match="finite"):
            DesignSet(np.ones((2, 1, 1)), [0.0, 1.0], [np.nan, 0.0])

    @pytest.mark.parametrize("shape", [(2, 1), (2, 1, 1, 1), (0, 1, 1), (2, 0, 1), (2, 1, 0)])
    def test_rejects_shapes_other_than_n_d_k(self, shape):
        with pytest.raises(ValueError):
            DesignSet(np.ones(shape), np.zeros(shape[0]))

    def test_subset_keeps_rows_and_aux(self):
        designs = DesignSet(np.arange(3.0).reshape(3, 1, 1), [0.5, -0.5, 1.5], [1.0, 2.0, 3.0])
        row = designs.subset(slice(1, 2))
        assert (row.n, row.V[0, 0, 0], row.taus[0], row.aux[0]) == (1, 1.0, -0.5, 2.0)
        assert designs.subset([2, 0]).aux.tolist() == [3.0, 1.0]
        assert DesignSet(np.ones((2, 1, 1)), np.zeros(2)).subset([1]).aux is None

    def test_fields_cannot_be_reassigned(self):
        # a negative threshold assigned after a Poisson check passed would
        # ride on the set's record; assigning once replaced the array, and
        # the new one was writeable
        fam = models.PoissonModel([1.0, 2.0])
        built = fam.design_set([0.0, 3.0])
        data = CensoredDataset([1, -1], DesignSet(np.ones((2, 1, 1)), [1.0, 2.0], [0.0, 1.0]))
        grouped = data.grouped()[0].designs  # built past the constructor
        for designs in (built, built.subset([1, 0]), grouped):
            for field in ("V", "taus", "aux"):
                before = getattr(designs, field)
                with pytest.raises(AttributeError, match="read-only"):
                    setattr(designs, field, np.array([-1.0, -1.0]))
                with pytest.raises(AttributeError, match="read-only"):
                    delattr(designs, field)
                assert getattr(designs, field) is before
        assert built.taus.tolist() == [0.0, 3.0]

    def test_copies_start_without_a_record(self):
        import copy
        import pickle

        fam = models.GaussianCase3([1.0, 2.0])
        designs = fam.design_set([0.5, 1.5])
        for twin in (pickle.loads(pickle.dumps(designs)), copy.deepcopy(designs)):
            # a copy is checked afresh
            assert np.array_equal(twin.V, designs.V) and twin._passed == set()
            with pytest.raises(AttributeError, match="read-only"):
                twin.taus = designs.taus
        for twin in (pickle.loads(pickle.dumps(designs)), copy.deepcopy(designs)):
            # ... and owns fresh arrays
            for field in ("V", "taus"):
                assert not np.shares_memory(getattr(twin, field), getattr(designs, field))
        assert designs.subset([1])._passed == set()
        assert DesignSet(designs.V, designs.taus)._passed == set()


class TestSharing:
    """A design set shares, and does not copy, an array that a design set
    already holds; it copies every other array."""

    def test_a_set_built_from_held_arrays_holds_the_same_objects(self):
        designs = DesignSet(np.ones((3, 1, 1)), [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        swept = DesignSet(designs.V, [5.0, 1.0, 2.0], designs.aux)
        assert swept.V is designs.V and swept.aux is designs.aux
        assert swept.taus is not designs.taus and swept.taus.tolist() == [5.0, 1.0, 2.0]
        again = DesignSet(swept.V, designs.taus)
        assert again.V is designs.V and again.taus is designs.taus
        grouped = CensoredDataset([1, 1, -1], designs).grouped()[0].designs
        assert DesignSet(grouped.V, grouped.taus, grouped.aux).V is grouped.V

    def test_a_threshold_sweep_allocates_no_copy_of_V(self):
        import tracemalloc

        fam = models.GaussianCase3(np.linspace(0.5, 1.5, 10**4))
        designs = fam.design_set(np.zeros(10**4))
        grid = [designs.taus + tau for tau in np.linspace(-1.0, 1.0, 64)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sweep = [DesignSet(designs.V, taus) for taus in grid]
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(swept.V is designs.V for swept in sweep)
        # one copy of each grid point's thresholds, and of nothing else that size
        assert 64 * designs.taus.nbytes <= grown < 64 * designs.taus.nbytes + designs.V.nbytes

    def test_subset_rows_are_not_copied_again(self):
        designs = DesignSet(np.arange(4.0).reshape(4, 1, 1), np.zeros(4), np.ones(4))
        prefix = designs.subset(slice(0, 2))
        assert all(np.shares_memory(getattr(prefix, f), getattr(designs, f))
                   for f in ("V", "taus", "aux"))
        with pytest.raises(ValueError):
            prefix.V.setflags(write=True)  # a view of a read-only array
        gathered = designs.subset([3, 0])
        assert DesignSet(gathered.V, gathered.taus, gathered.aux).V is gathered.V

    @staticmethod
    def _outside():
        """(array, write): arrays from outside the package, and a later write
        by their owner to each."""
        writeable = np.ones((2, 1, 1))
        owned = np.ones((2, 1, 1))
        owned.setflags(write=False)
        base = np.ones((2, 1, 1))
        view = base[:]
        view.setflags(write=False)

        def rewrite(a):
            a.setflags(write=True)
            a[0, 0, 0] = 7.0

        return [
            (writeable, lambda: writeable.__setitem__((0, 0, 0), 7.0)),
            (owned, lambda: rewrite(owned)),
            (view, lambda: base.__setitem__((0, 0, 0), 7.0)),
        ]

    @pytest.mark.parametrize("case", range(3), ids=["writeable", "owned-read-only", "view"])
    def test_outside_arrays_are_copied(self, case):
        array, write = self._outside()[case]
        designs = DesignSet(array, array[:, 0, 0], array[:, 0, 0])
        again = DesignSet(array, designs.taus)  # not held, so copied once more
        write()
        for ds in (designs, again):
            assert ds.V.tolist() == [[[1.0]], [[1.0]]]
            assert not np.shares_memory(ds.V, array)
        assert designs.taus.tolist() == designs.aux.tolist() == [1.0, 1.0]

    def test_a_nonfinite_outside_array_raises_even_read_only(self):
        bad = np.array([0.0, np.inf])
        bad.setflags(write=False)
        with pytest.raises(ValueError, match="designs must be finite"):
            DesignSet(np.ones((2, 1, 1)), bad)
        with pytest.raises(ValueError, match="aux must be finite"):
            DesignSet(np.ones((2, 1, 1)), np.zeros(2), bad)

    def test_a_held_array_made_writeable_again_is_copied(self):
        designs = DesignSet(np.ones((2, 1, 1)), np.zeros(2))
        designs.V.setflags(write=True)  # its owner's array: reachable, so not shared
        assert DesignSet(designs.V, designs.taus).V is not designs.V

    def test_a_shared_V_still_meets_the_rules_on_its_own_thresholds(self):
        fam = models.PoissonModel([1.0, 2.0, 3.0])
        checked = fam.design_set([0.0, 1.0, 2.0])
        swept = DesignSet(checked.V, [0.0, 1.0, -2.0])
        assert swept.V is checked.V and swept._passed == set()
        with pytest.raises(DomainError, match="poisson thresholds must be >= 0") as err:
            fam.check_designs(swept)
        assert err.value.index == 2


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

    def test_permuted(self):
        designs = DesignSet(np.arange(3, dtype=float).reshape(3, 1, 1), np.arange(3.0))
        data = CensoredDataset([1, -1, 1], designs)
        perm = data.permuted([2, 0, 1])
        assert list(perm.bits) == [1, 1, -1]
        assert list(perm.designs.taus) == [2.0, 0.0, 1.0]

    def test_designs_must_be_a_design_set(self):
        designs = DesignSet(np.ones((2, 1, 1)), np.zeros(2))
        rows = [designs.subset(slice(i, i + 1)) for i in range(2)]
        for bad in (rows, (designs.V, designs.taus)):
            with pytest.raises(TypeError, match="DesignSet"):
                CensoredDataset([1, -1], bad)

    def test_mixed_design_shapes_rejected(self):
        # one threshold per design matrix, or no dataset
        with pytest.raises(ValueError, match="thresholds"):
            CensoredDataset([1, -1], DesignSet(np.ones((2, 1, 1)), np.zeros(3)))

    def test_aux_all_or_none(self):
        # aux is one entry per row or absent
        with pytest.raises(ValueError, match="aux"):
            CensoredDataset([1, 1], DesignSet(np.ones((2, 1, 1)), np.zeros(2), [1.0]))
        data = CensoredDataset([1, 1], DesignSet(np.ones((2, 1, 1)), np.zeros(2)))
        assert data.designs.aux is None

    def test_length_mismatch(self):
        designs = DesignSet(np.ones((2, 1, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            CensoredDataset([1], designs)

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
        g = data.grouped()[0]
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
        g = data.grouped()[0]
        for _ in range(5):
            h = data.permuted(rng.permutation(data.n)).grouped()[0]
            assert np.array_equal(g.bits, h.bits)
            assert np.array_equal(g.counts, h.counts)
            assert np.array_equal(g.designs.V, h.designs.V)
            assert np.array_equal(g.designs.taus, h.designs.taus)
            assert np.array_equal(g.designs.aux, h.designs.aux)

    def test_regrouping_adds_counts(self, rng):
        data = _mixed_rows(rng)
        g = data.grouped()[0]
        doubled = CensoredDataset(g.bits, g.designs, 2 * g.counts).permuted(np.arange(g.n)[::-1])
        again = doubled.grouped()[0]
        assert np.array_equal(again.counts, 2 * g.counts)
        assert np.array_equal(again.designs.V, g.designs.V)

    def test_single_group_and_signed_zero(self):
        V = np.array([[[0.0]], [[-0.0]], [[0.0]]])
        data = CensoredDataset([1, 1, 1], DesignSet(V, [1.0, 1.0, 1.0]))
        g = data.grouped()[0]
        assert (g.n, list(g.counts)) == (1, [3])
        h = data.permuted([1, 0, 2]).grouped()[0]
        assert np.array_equal(g.designs.V, h.designs.V)
        assert not np.signbit(h.designs.V).any()


class TestDesignTally:
    def test_counts_per_design_over_rows_and_groups(self, rng):
        data = _mixed_rows(rng, n=80)
        doubled = CensoredDataset(data.bits, data.designs, 2 * data.counts)
        shuffled = doubled.permuted(rng.permutation(80))
        for d, scale in ((data, 1), (data.grouped()[0], 1), (shuffled, 2)):
            g, _, (rows, totals, plus) = d.grouped()
            assert len(rows) == 3  # (w, aux): (1, 0), (2, 0), (1, 1); one threshold
            for r, total, p in zip(rows, totals, plus):
                same = np.all(data.designs.V == g.designs.V[r], axis=(1, 2)) & (
                    data.designs.aux == g.designs.aux[r]
                )
                assert total == scale * np.count_nonzero(same)
                assert p == scale * np.count_nonzero(same & (data.bits > 0))

    def test_distinct_thresholds_make_one_design_per_row(self):
        V = np.ones((4, 1, 1))
        data = CensoredDataset([1, -1, -1, 1], DesignSet(V, [0.3, -1.0, 2.0, 0.5]), [2, 1, 3, 1])
        g, first, (rows, totals, plus) = data.grouped()
        assert list(first) == [1, 2, 0, 3]  # -1 bits first, each block by threshold
        assert list(rows) == [0, 2, 3, 1]  # designs sorted by threshold
        assert list(totals) == [1, 2, 1, 3]
        assert list(plus) == [0, 2, 1, 0]

    def test_shared_threshold_split_by_design(self):
        V = np.array([[[1.0]], [[2.0]], [[1.0]], [[2.0]], [[1.0]]])
        data = CensoredDataset([1, 1, -1, 1, 1], DesignSet(V, [0.5, 0.5, 0.5, 0.5, 0.7]))
        g, _, (rows, totals, plus) = data.grouped()
        got = sorted(
            (float(g.designs.V[r, 0, 0]), float(g.designs.taus[r]), int(t), int(p))
            for r, t, p in zip(rows, totals, plus)
        )
        assert got == [(1.0, 0.5, 2, 1), (1.0, 0.7, 1, 1), (2.0, 0.5, 2, 2)]


def _column(rng, n, kind):
    """A key column: one value, a few values with both signed zeros, or all distinct."""
    if kind == "constant":
        return np.full(n, rng.choice([-0.0, 0.0, 1.5]))
    if kind == "few":
        return rng.choice([-0.0, 0.0, -1.0, 0.5, 2.0], n)
    return rng.standard_normal(n)


def _oracle_instance(rng):
    """Random rows mixing constant, few-valued and distinct columns, with
    or without aux, unit or repeated counts, and one or both bits."""
    n = int(rng.choice([1, 2, int(rng.integers(3, 60))]))
    d, k = (int(v) for v in rng.integers(1, 3, 2))
    kinds = ("constant", "few", "distinct")
    V = np.stack([_column(rng, n, rng.choice(kinds, p=[0.4, 0.5, 0.1])) for _ in range(d * k)], 1)
    taus = _column(rng, n, rng.choice(kinds))
    aux = _column(rng, n, rng.choice(kinds)) if rng.random() < 0.5 else None
    bits = rng.choice([-1, 1], n) if rng.random() < 0.8 else np.full(n, rng.choice([-1, 1]))
    counts = rng.integers(1, 6, n) if rng.random() < 0.5 else None
    return CensoredDataset(bits, DesignSet(V.reshape(n, d, k), taus, aux), counts)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_tally(g, tally, data):
    """Whether the tally of ``data.grouped()`` (rows indexing ``g``) is the
    oracle's, bit for bit: the same designs, totals and +1 counts."""
    want_rows, want_totals, want_plus = lexsort_design_tally(data)
    rows, totals, plus = tally
    designs = [(g.designs.V, data.designs.V), (g.designs.taus, data.designs.taus)]
    if data.designs.aux is not None:
        designs.append((g.designs.aux, data.designs.aux))
    return (
        rows.dtype == np.intp
        and all(_same(got[rows], want[want_rows] + 0.0) for got, want in designs)
        and _same(totals, want_totals)
        and _same(plus, want_plus)
    )


class TestGroupingOracle:
    """``grouped`` and its tally against the stable lexsort they replaced."""

    @pytest.mark.parametrize("seed", range(300))
    def test_bit_identical_to_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        data = _oracle_instance(rng)
        for d in (data, data.permuted(rng.permutation(data.n))):
            g, first, tally = d.grouped()
            want_first, want_counts = lexsort_grouped(d)
            assert _same(first, want_first)
            assert _same(g.counts, want_counts)
            assert _same(g.bits, d.bits[want_first])
            for got, rows in ((g.designs.V, d.designs.V), (g.designs.taus, d.designs.taus)):
                assert _same(got, rows[want_first] + 0.0)
            if d.designs.aux is None:
                assert g.designs.aux is None
            else:
                assert _same(g.designs.aux, d.designs.aux[want_first] + 0.0)
            assert _same_tally(g, tally, d)
            # each design's row is its first among the grouped rows
            assert _same(tally[0], lexsort_design_tally(g)[0])

    def test_distinct_rows_and_many_columns(self):
        # every row its own group, and more digits than fit one int64 code
        rng = np.random.default_rng(7)
        n = 500
        V = rng.standard_normal((n, 2, 3))
        designs = DesignSet(V, rng.standard_normal(n), V[:, 0, 0])
        data = CensoredDataset(rng.choice([-1, 1], n), designs)
        g, first, tally = data.grouped()
        assert _same(first, lexsort_grouped(data)[0]) and g.n == n
        assert _same_tally(g, tally, data)


def _unknown_estimator():
    ExperimentConfig(
        model="gaussian-case1",
        true_params={"alpha": 0.5, "sigma": 1.0},
        weights=Rule(kind="constant", value=1.0),
        thresholds=Rule(kind="constant", value=0.5),
        sample_sizes=(50,),
        trials=1,
        seed=1,
        estimator="mle",
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: models.GaussianCase1([1.0], sigma=1.0).prob_leq(
                [0.0], DesignSet(np.ones((1, 2, 2)), [0.0])
            ),
            DomainError, "gaussian-case1 expects designs of shape (1, 1), got (2, 2)",
            id="families-design-shape",
        ),
        pytest.param(
            _unknown_estimator, ConfigError, "unknown estimator 'mle'",
            id="montecarlo-estimator",
        ),
        pytest.param(
            lambda: CensoredDataset(np.array([], dtype=int), DesignSet(np.ones((1, 1, 1)), [0.0])),
            ValueError, "need at least one observation", id="types-no-rows",
        ),
    ],
)
def test_rare_shape_and_config_errors(call, error, message):
    # errors of the families, montecarlo and types modules that the other
    # tests never raise
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
