"""Cross-corner delay-ratio clouds and envelopes (paper Figure 2)."""

import pytest

from repro.tech.ratio_bounds import (
    fit_all_ratio_bounds,
    fit_ratio_bounds,
    sample_ratio_cloud,
)
from repro.tech.stage_lut import clear_hop_cache
from tests.oracles import (
    PARITY_LIBRARIES,
    reference_ratio_bounds,
    reference_ratio_cloud,
)


#: The custom sampling of the ``cloud`` fixture.
CLOUD_AXES = dict(
    sizes=(4, 16),
    wl_axis=(20.0, 80.0, 160.0),
    slew_axis=(10.0, 50.0),
    load_axis=(2.0, 20.0),
    wl_stride=1,
)


@pytest.fixture(scope="module")
def cloud(library_cls1):
    return sample_ratio_cloud(
        library_cls1,
        library_cls1.corners.by_name("c1"),
        library_cls1.corners.by_name("c0"),
        **CLOUD_AXES,
    )


@pytest.fixture(scope="module")
def bounds(cloud):
    return fit_ratio_bounds(cloud, degree=2, bins=6)


class TestCloud:
    def test_sample_count(self, cloud):
        assert len(cloud.ratio) == 2 * 3 * 2 * 2

    def test_slow_corner_ratios_above_one(self, cloud):
        assert all(r > 1.0 for r in cloud.ratio)

    def test_gate_dominated_stages_have_higher_ratio(self, cloud):
        """The cloud's defining trend: ratio rises with delay density."""
        import numpy as np

        density = np.asarray(cloud.density)
        ratio = np.asarray(cloud.ratio)
        lo = ratio[density < np.median(density)].mean()
        hi = ratio[density >= np.median(density)].mean()
        assert hi > lo


class TestBounds:
    def test_every_sample_inside_envelope(self, cloud, bounds):
        for d, r in zip(cloud.density, cloud.ratio):
            assert bounds.lower(d) - 1e-9 <= r <= bounds.upper(d) + 1e-9

    def test_contains_api(self, cloud, bounds):
        d, r = cloud.density[0], cloud.ratio[0]
        assert bounds.contains(d, r)
        assert not bounds.contains(d, r * 3.0)

    def test_clamps_outside_density_range(self, bounds):
        below = bounds.upper(bounds.density_min - 100.0)
        at = bounds.upper(bounds.density_min)
        assert below == pytest.approx(at)

    def test_upper_above_lower_everywhere(self, bounds):
        import numpy as np

        for d in np.linspace(bounds.density_min, bounds.density_max, 30):
            assert bounds.upper(float(d)) > bounds.lower(float(d))

    def test_too_few_samples_rejected(self, library_cls1):
        from repro.tech.ratio_bounds import RatioCloud

        tiny = RatioCloud(
            corner_a=library_cls1.corners[1],
            corner_b=library_cls1.corners[0],
            density=(1.0, 2.0),
            ratio=(1.5, 1.6),
        )
        with pytest.raises(ValueError):
            fit_ratio_bounds(tiny, degree=2)


class TestBatchedClouds:
    """Delay grids against the scalar sample loop, with exact ``==``."""

    def test_cloud_equals_oracle(self, cloud, library_cls1):
        expected = reference_ratio_cloud(
            library_cls1,
            library_cls1.corners.by_name("c1"),
            library_cls1.corners.by_name("c0"),
            **CLOUD_AXES,
        )
        assert cloud.density == expected.density
        assert cloud.ratio == expected.ratio
        assert (cloud.corner_a, cloud.corner_b) == (expected.corner_a, expected.corner_b)

    def test_nominal_pair_on_default_axes(self, library_cls1):
        """A pair that includes the nominal corner, on the default sampling."""
        c0, c3 = library_cls1.corners.by_name("c0"), library_cls1.corners.by_name("c3")
        assert sample_ratio_cloud(library_cls1, c0, c3) == reference_ratio_cloud(
            library_cls1, c0, c3
        )

    @pytest.mark.parametrize("name", sorted(PARITY_LIBRARIES))
    def test_all_bounds_equal_oracle(self, name):
        """Every ordered pair, every RatioBounds field, bit for bit."""
        library = PARITY_LIBRARIES[name]()
        clear_hop_cache()
        expected = reference_ratio_bounds(library)
        clear_hop_cache()
        got = fit_all_ratio_bounds(library)
        assert list(got) == list(expected)
        for key, bounds in got.items():
            ref = expected[key]
            assert bounds.upper_coeffs == ref.upper_coeffs, key
            assert bounds.lower_coeffs == ref.lower_coeffs, key
            assert bounds == ref, key
