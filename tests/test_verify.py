"""Self-verification suite: full pass, filters, small sweeps.  The
negative control runs through the CLI in ``test_cli``."""

import pytest

from conftest import verify_checks
from holder_vi.errors import ConfigError
from holder_vi.verify import (
    GROUPS,
    all_passed,
    format_table,
    jacobian_fd_worst,
    remainder_sweep,
    run_checks,
    suite_instances,
)


def test_group_names_are_stable():
    assert GROUPS == ("monotone", "remainder", "holder", "jacobian",
                      "geometry", "subproblem", "reduction", "bounds", "gap")


def test_suite_covers_every_family():
    names = {inst.name.split(":")[0] for inst in suite_instances()}
    assert names == {"power", "bilinear", "quartic", "piecewise"}


def test_remainder_sweep_margin_is_negative(power_nu_half):
    # worst (remainder - bound) over sampled pairs stays below tolerance
    assert remainder_sweep(power_nu_half, n_pairs=2000) <= 0.0


def test_tensor_sweep_margin_is_negative(quartic):
    assert remainder_sweep(quartic, order=3, n_pairs=2000) <= 0.0


def test_finite_difference_jacobian_agrees(power_nu1):
    assert jacobian_fd_worst(power_nu1, n_points=20) <= 1e-5


def test_single_group_runs_only_that_group():
    results = run_checks(only="geometry")
    assert results
    assert {r.group for r in results} == {"geometry"}
    assert all_passed(results)


def test_unknown_group_is_config_error():
    with pytest.raises(ConfigError):
        run_checks(only="nonsense")


def test_full_suite_passes(verify_results):
    assert all_passed(verify_results), format_table(verify_results)
    assert len(verify_results) >= 40
    assert "FAIL" not in format_table(verify_results)
    # the acceptance scorecard's lookup fails rather than matching nothing
    with pytest.raises(AssertionError, match="no verify check"):
        verify_checks(verify_results, "remainder", "no such sweep")
