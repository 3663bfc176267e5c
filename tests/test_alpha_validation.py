import math
import re

import pytest

from rarexact import (
    AsymptoticRule,
    CmdpSpec,
    DbcdNeyman,
    boschloo_rule,
    conditional_rule,
    forward_g,
    randomization_rejection_rate,
    randomization_test,
    simulate_trial,
    unconditional_rule,
)

BAD_LEVELS = [math.nan, -0.1, 0.0, 1.0, 1.5]
BAD_BOUNDS = [math.nan, -0.1, 1.5]

POLICY = DbcdNeyman(20, 2)
TABLE = forward_g(POLICY)
HISTORY = simulate_trial(POLICY, (0.4, 0.6), seed=1)

ENTRY_POINTS = {
    "conditional_rule": lambda a: conditional_rule(TABLE, a),
    "unconditional_rule": lambda a: unconditional_rule(TABLE, a),
    "boschloo_rule": lambda a: boschloo_rule(TABLE, a),
    "AsymptoticRule": AsymptoticRule,
    "CmdpSpec": lambda a: CmdpSpec(n=8, burn_in=1, alpha=a),
    "randomization_test": lambda a: randomization_test(HISTORY, POLICY, 100, a, seed=2),
    "randomization_rejection_rate": lambda a: randomization_rejection_rate(
        POLICY, (0.4, 0.6), 100, 100, a, seed=2),
}


@pytest.mark.parametrize("alpha", BAD_LEVELS)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_level_is_rejected_naming_it(entry, alpha):
    with pytest.raises(ValueError, match=re.escape(f"alpha = {alpha!r}")):
        ENTRY_POINTS[entry](alpha)


@pytest.mark.parametrize("alpha", BAD_BOUNDS)
@pytest.mark.parametrize("name", ["alpha_avg", "alpha_point"])
def test_bad_cmdp_bound_is_rejected_naming_it(name, alpha):
    with pytest.raises(ValueError, match=re.escape(f"{name} = {alpha!r}")):
        CmdpSpec(n=8, burn_in=1, **{name: alpha})


def test_cmdp_bounds_accept_the_closed_interval():
    CmdpSpec(n=8, burn_in=1, alpha_avg=1.0, alpha_point=0.0)
