import numpy as np
import pytest

from topofuse import synth
from topofuse.errors import OutOfRange


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kv",
        [
            {"n_domains": 0},
            {"spots_per_domain": 0},
            {"genes": 2, "n_domains": 3},
            {"mor_dims": -1},
            {"noise_std": 0.0},
            {"signal_tra": -0.5},
            {"signal_mor": -0.5},
            {"spacing": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kv):
        with pytest.raises(OutOfRange):
            synth.SynthSpec(**kv)

    @pytest.mark.parametrize(
        "kv",
        [{"seed": -1}, {"spacing": float("nan")}, {"noise_std": float("inf")}, {"signal_tra": float("nan")},
         {"signal_mor": float("inf")}, {"signal_mor": -float("inf")}],
    )
    def test_rejects_negative_seed_and_non_finite_floats_by_name(self, kv):
        (field,) = kv
        with pytest.raises(OutOfRange, match=f"^{field} must be "):
            synth.SynthSpec(**kv)


class TestGenerate:
    def test_shapes_and_id_formats(self):
        spec = synth.SynthSpec(n_domains=3, spots_per_domain=7, genes=30, mor_dims=5)
        ds, truth = synth.generate(spec)
        n = 21
        assert ds.tra.shape == (n, 30)
        assert ds.mor.shape == (n, 5)
        assert ds.coords.shape == (n, 2)
        assert ds.spot_ids == [f"s{i:04d}" for i in range(n)]
        assert ds.gene_ids == [f"g{i:04d}" for i in range(30)]
        assert np.array_equal(ds.labels, np.repeat([0, 1, 2], 7))
        assert truth["tra"].shape == (n, 30)
        assert truth["mor"].shape == (n, 5)
        assert np.array_equal(truth["labels"], ds.labels)

    def test_deterministic_for_a_seed(self):
        spec = synth.SynthSpec(spots_per_domain=10, genes=40, seed=7)
        ds1, t1 = synth.generate(spec)
        ds2, t2 = synth.generate(spec)
        assert np.array_equal(ds1.tra, ds2.tra)
        assert np.array_equal(ds1.mor, ds2.mor)
        assert np.array_equal(ds1.coords, ds2.coords)
        assert np.array_equal(t1["tra"], t2["tra"])
        ds3, _ = synth.generate(synth.SynthSpec(spots_per_domain=10, genes=40, seed=8))
        assert not np.array_equal(ds1.tra, ds3.tra)

    def test_marker_blocks_raised_by_signal(self):
        spec = synth.SynthSpec(
            n_domains=2, spots_per_domain=4, genes=10, mor_dims=6,
            signal_tra=3.0, signal_mor=2.0, noise_std=0.5,
        )
        _, truth = synth.generate(spec)
        base = synth.BASE_EXPR * 0.5
        first = truth["tra"][0]
        assert np.array_equal(first[:5], np.full(5, base + 1.5))
        assert np.array_equal(first[5:], np.full(5, base))
        last = truth["tra"][-1]
        assert np.array_equal(last[5:], np.full(5, base + 1.5))
        # morphology baseline is zero, so markers are exactly signal * sigma
        assert np.array_equal(truth["mor"][0], np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))

    def test_zero_signal_truth_is_flat(self):
        spec = synth.SynthSpec(n_domains=2, spots_per_domain=3, genes=8, signal_tra=0.0)
        _, truth = synth.generate(spec)
        assert np.array_equal(truth["tra"], np.full((6, 8), synth.BASE_EXPR))

    def test_expression_nonnegative(self):
        spec = synth.SynthSpec(spots_per_domain=20, genes=50, noise_std=5.0)
        ds, _ = synth.generate(spec)
        assert ds.tra.min() >= 0.0

    def test_no_morphology_when_dims_zero(self):
        ds, truth = synth.generate(synth.SynthSpec(spots_per_domain=3, genes=8, mor_dims=0))
        assert ds.mor is None and truth["mor"] is None

    def test_domains_are_spatially_separated(self):
        spec = synth.SynthSpec(n_domains=3, spots_per_domain=9, genes=12, spacing=2.0)
        ds, _ = synth.generate(spec)
        for d in range(2):
            left = ds.coords[ds.labels == d, 0].max()
            right = ds.coords[ds.labels == d + 1, 0].min()
            # gap cells minus jitter on both sides, in spacing units
            assert right - left >= (synth.BLOCK_GAP + 1 - 2 * synth.JITTER) * 2.0

    def test_wide_id_padding_for_large_n(self):
        ds, _ = synth.generate(synth.SynthSpec(n_domains=1, spots_per_domain=3, genes=4))
        assert ds.spot_ids[0] == "s0000"
